"""Golden digests pinning the paper studies' reproduced rows.

Each digest is the content key (SHA-256 of the canonical JSON) of the
``Results`` rows one small study grid returns.  The flow digests in
``tests/flow/test_commit_golden.py`` pin commit decisions; these pin
the tables the paper's figures are read from, so a change that claims
to be bit-identical must leave both unchanged.
"""

import pytest

from repro.experiments import (ext_reservations, fig2_example,
                               fig3_admissible, fig4_load)
from repro.experiments.fig4_load import FIG4A_TYPES
from repro.experiments.study import (ApplicationStudyConfig,
                                     CoordinatedStudyConfig)
from repro.platform import content_key

#: Per study: a small grid (two Fig. 3a job blocks, 12 Fig. 4a jobs per
#: family, 24 reservation-mode jobs) and its rows' digest.
STUDIES = {
    "fig2": (
        fig2_example.grid,
        "b8c3f4c970861629807f64f1364d2802446d4c0a4832ae0e7eb7b06f17cb8051"),
    "fig3a": (
        lambda: fig3_admissible.grid(ApplicationStudyConfig(n_jobs=30)),
        "c506d58635fdbb6d8033ccabe373b5714575e6532f36023fdef3e0425518a84c"),
    "fig4a": (
        lambda: fig4_load.grid(
            CoordinatedStudyConfig(n_jobs=12, stypes=FIG4A_TYPES)),
        "87f2da7ecf01876a70d04b7f0b72676af7f9535a8e6dcf9607c5b5dfc70135c8"),
    "ext-reservations": (
        lambda: ext_reservations.grid(n_jobs=24),
        "1cba32ffc631b22737560df52d1ca7102cb8c8717f1a73f6e1b0534155114a96"),
}


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_rows_digest_is_pinned(study):
    make_grid, digest = STUDIES[study]
    results = make_grid().run()
    assert len(results) > 0
    assert content_key(results.rows) == digest
