"""Embedding relations between covering-decomposition function spaces.

The library decides sharp embeddings via closed-form piecewise-linear
index functions (``indices``), constructs and validates the underlying
smooth frequency partitions (``covering``), computes the associated
discretized norms and witness functions (``grids``), and numerically
cross-validates the closed forms through operator-norm asymptotics
(``asymptotics``).  The ``alphamod`` command line ties these together
into reproducible runs.
"""

from .covering import (
    CoveringSpec,
    PartitionMember,
    Partition,
    ball_geometry,
    build_partition,
    neighbor_set,
    verify_partition,
)
from .errors import (
    AlphamodError,
    CoveringError,
    DomainError,
    GeometryError,
    ParameterError,
    TruncationError,
)
from .grids import (
    GridFunction,
    NormResult,
    box_apply,
    builtin_function,
    coarse_norm,
    lp_quasinorm,
    sequence_norm,
    space_norm,
    witness_bump,
)
from .indices import (
    EmbeddingVerdict,
    IndexBreakdown,
    PowerWeight,
    SpaceParams,
    embedding_decide,
    growth_index,
    embedding_index,
    region_classify,
    seq_multiplier_norm_closed,
    shared_exponent_decide,
)
from .asymptotics import (
    ExponentFit,
    OpNormSample,
    box_opnorm_lower,
    box_opnorm_montecarlo,
    dilation_necessity_check,
    embedding_consistency_check,
    exponent_fit,
    growth_rate_check,
    coarse_norm_ratio_check,
    seq_multiplier_norm_bruteforce,
)

__version__ = "0.1.0"
