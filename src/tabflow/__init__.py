"""Tablature rendering, latent rectified-flow style transfer, and evaluation.

The pipeline: parse a GFTab score, render it with a deterministic
plucked-string instrument in two styles, encode 4-second chunks into an
invertible frame-transform latent space, train a UNet velocity field by
rectified flow matching between the styles, transport new renders through
the learned ODE, and score the results with FAD / KAD / reconstruction
distances plus nonparametric rating statistics.
"""
