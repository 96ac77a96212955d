"""q-ary [N, 3, N-2] MDS codes from Hermitian forms over GF(q^2)."""

from .code import (
    CodeSpec,
    construct_code,
    encode,
    from_text,
    is_mds,
    min_distance,
    reference_instance,
    to_text,
    weight_distribution,
)
from .decoder import DecodeResult, geometric_decode, ml_decode
from .fields import FieldError, FieldTower, tower_for_q

__all__ = [
    "CodeSpec",
    "DecodeResult",
    "FieldError",
    "FieldTower",
    "construct_code",
    "encode",
    "from_text",
    "geometric_decode",
    "is_mds",
    "min_distance",
    "ml_decode",
    "reference_instance",
    "to_text",
    "tower_for_q",
    "weight_distribution",
]
