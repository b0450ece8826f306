"""Desk-scale computations for the twofold cover of Sp_2n over a p-adic
field: root datum combinatorics, cover arithmetic, torus Hecke identities
with a counting oracle, and supersingular-triple bookkeeping."""

from .rootdata import (
    Character,
    Cocharacter,
    ParabolicSubset,
    antidominant_above,
    antidominant_rep,
    coroot,
    is_antidominant,
    leq,
    pairing,
    simple_root,
)
from .cover import (
    ALL_CLASSES,
    LocalFieldDescriptor,
    ONE_CLASS,
    PI_CLASS,
    SquareClass,
    UNIT_CLASS,
    UPI_CLASS,
    commutator_sign,
    eval_B,
    eval_Q,
    hilbert,
    hilbert_solvable,
    splits_over_Mprime,
)
from .characters import (
    GenuineTorusCharacter,
    SmoothCharacterFx,
    genuine_equal,
    restrict_short_coroot,
)
from .weights import (
    QRestrictedWeight,
    change_of_weight_pair,
    is_M_regular,
    pi_nu,
    same_weight_class,
)
from .hecke import (
    ASet,
    A_fiber,
    HeckeCharacter,
    TorusHeckeElement,
    change_of_weight_decision,
    enumerate_A,
    metaplectic_satake_T2lambda,
    parity_filter,
    pi_chi,
    t2lambda_base,
    vanishing_sum_check,
)
from .oracle import (
    CosetCountResult,
    PadicMatrix,
    count_cosets,
    reductive_satake_row,
    verify_metaplectic_pipeline,
)
from .classify import (
    SupersingularDatum,
    SupersingularTriple,
    composition_factors,
    enumerate_classification,
    pi_sigma,
    ps_equivalent,
    ps_irreducible,
    ps_length,
    siegel_lift,
    torus_datum,
)

__version__ = "0.1.0"
