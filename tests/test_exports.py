"""Every exported name must resolve, so `from tabflow import *` cannot break
on a name that was deleted or renamed but left in __all__."""

import pytest

import tabflow
import tabflow.neuralnet


@pytest.mark.parametrize("package", [tabflow, tabflow.neuralnet])
def test_every_exported_name_resolves(package):
    assert package.__all__
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, missing
