"""The package's public names."""

import mdp_tcm


def test_every_exported_name_resolves():
    # a name in __all__ that the package lacks makes the star import raise
    namespace = {}
    exec("from mdp_tcm import *", namespace)
    assert set(mdp_tcm.__all__) <= set(namespace)
