"""Names of the built-in datasets and of the baseline matchers.

They live apart from :mod:`repro.datasets` and :mod:`repro.baselines`
so that the command line can offer and recognise them without importing
either package: a ``serve-match`` or ``serve-shard`` process needs
neither, and pays nothing for them at start-up.
"""

from __future__ import annotations

from typing import Tuple

#: The dataset order used by the paper's tables and figures.
DATASET_ORDER: Tuple[str, ...] = (
    "HC", "MA", "CH", "CP", "SB", "HB", "WT", "TC", "SA", "AR",
)

#: Names of the baseline algorithms in the paper's comparison line-up.
BASELINE_NAMES: Tuple[str, ...] = ("CFL-H", "DAF-H", "CECI-H", "RapidMatch-H")
