"""The package namespace."""

import types

import qcorr


def test_all_lists_every_public_name():
    public = [name for name, value in vars(qcorr).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(qcorr.__all__) == sorted(public)
