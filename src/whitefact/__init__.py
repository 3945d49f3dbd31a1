"""Engine for pure symmetric automorphisms of free products.

Represent a free product by computable factor backends, work in the
Bass-Serre tree of the splitting, measure star labellings by their spoke
volumes, and factor any pure symmetric automorphism into Whitehead moves,
a factor automorphism, and an explicit inner conjugation.
"""

from .errors import (
    AlreadyBaseError,
    EngineError,
    FactorMismatchError,
    NonSplittingError,
    NotAStabilizerError,
    OracleUnavailableError,
    SchemaError,
    SystemMismatchError,
)
from .factors import (
    CyclicBackend,
    FactorAutoPart,
    FactorElement,
    FactorSystem,
    IntBackend,
    TableBackend,
)
from .words import (
    Word,
    empty_word,
    enumerate_words,
    letter,
    normal_form,
    word,
    word_mul,
)
from .tree import (
    Ball,
    TreeVertex,
    act_vertex,
    ball_distances,
    bfs_ball,
    c_vertex,
    distance,
    geodesic,
    u_vertex,
)
from .labellings import (
    ApexLabel,
    StarLabel,
    act_on_label,
    apex_equivalent,
    apex_label,
    base_label,
    collapses,
    is_base,
    star_equivalent,
    star_label,
    volume,
)
from .reduction import FoldWitness, MoveRecord, find_fold, reduce_step, reduce_to_base
from .autos import (
    Factorization,
    PureSymmetricAuto,
    WhiteheadAuto,
    compose,
    decompose_apex_stabilizer,
    decompose_star_stabilizer,
    evaluate_factorization,
    factor_only_auto,
    factorize,
    identity_auto,
    inner_auto,
    invert,
    is_inner,
    pure_auto,
    recompose_factorization,
    tuple_auto,
    verify_factorization,
    whitehead_auto,
    whitehead_to_auto,
)
from .explorer import BallReport, SnBall, check_ball, enumerate_ball

__version__ = "0.1.0"
