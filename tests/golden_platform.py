"""The platform a golden record was made on, shared by the golden tests.

A record's bits depend on the numpy build and its BLAS, so each record
holds both. A run under another numpy or BLAS fails and names both
platforms: the record is then not evidence either way, and should be
regenerated at the parent commit on that platform before it is compared.
"""

import numpy as np


def build() -> dict:
    """The numpy version and the name and version of its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def check_build(golden: dict, name: str):
    """Fail unless ``golden`` was recorded on this run's platform, naming both."""
    here = build()
    assert golden["build"] == here, f"{name} was recorded under {golden['build']}, this run has {here}"
