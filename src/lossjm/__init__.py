"""Measurement incompatibility of continuous-variable detectors under loss.

Builds displaced on-off photodetection POVMs in truncated Fock spaces, maps
them through pure-loss channels, and decides joint measurability with one
interior-point solve of the incompatibility-robustness SDP (a parent POVM
proves each COMPATIBLE verdict, a dual witness each INCOMPATIBLE one), an
explicit linear-optical parent construction, a closed-form qubit pair
criterion, and unambiguous state-discrimination witnesses.
"""

__version__ = "0.1.0"

from .compat import (
    Verdict,
    certify,
    decide_table_row,
    depolarize,
    robustness,
)
from .fock import coherent_ket
from .loss import apply_dual
from .measurements import (
    FamilyParams,
    MeasurementSet,
    ParentPovm,
    displaced_onoff,
    random_measurement_set,
    random_two_outcome_povm,
    symmetric_family,
)
from .parent import lon_parent, verify_marginal_identity
from .qubit import (
    PairTestReport,
    lossy_displaced_pair,
    pair_test,
)
from .usd import (
    UsdReport,
    beats_no_loss_optimum,
    lossy_usd_success,
    p_d,
    p_d_approx,
    p_lon,
    p_lon_approx,
    result4_threshold,
    usd_report,
)

__all__ = [
    "FamilyParams",
    "MeasurementSet",
    "PairTestReport",
    "ParentPovm",
    "UsdReport",
    "Verdict",
    "apply_dual",
    "beats_no_loss_optimum",
    "certify",
    "coherent_ket",
    "decide_table_row",
    "depolarize",
    "displaced_onoff",
    "lon_parent",
    "lossy_displaced_pair",
    "lossy_usd_success",
    "p_d",
    "p_d_approx",
    "p_lon",
    "p_lon_approx",
    "pair_test",
    "random_measurement_set",
    "random_two_outcome_povm",
    "result4_threshold",
    "robustness",
    "symmetric_family",
    "usd_report",
    "verify_marginal_identity",
]
