"""Internal utilities shared across the :mod:`repro` package.

Nothing here is part of the public API; downstream users should import from
:mod:`repro` or its documented subpackages instead.
"""

from repro._util.dtypes import (
    WORD_BITS,
    WORD_DTYPE,
    count_dtype_for_degree,
    narrow_uint,
)
from repro._util.intmath import (
    ceil_div,
    ceil_log2,
    ilog2,
    is_power_of_two,
    log2_real,
    next_power_of_two,
    parse_byte_size,
)
from repro._util.popcount import POPCOUNT16, popcount_u32, popcount_u64
from repro._util.specstr import format_call, format_value, parse_call, parse_value
from repro._util.rng import (
    as_rng,
    counter_cell_coins,
    counter_coin_blocks,
    counter_coins,
    counter_uniforms,
    derive_keys,
    spawn_seeds,
)
from repro._util.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
)

__all__ = [
    "POPCOUNT16",
    "WORD_BITS",
    "WORD_DTYPE",
    "as_rng",
    "ceil_div",
    "ceil_log2",
    "count_dtype_for_degree",
    "check_fraction",
    "check_positive",
    "check_positive_int",
    "counter_cell_coins",
    "counter_coin_blocks",
    "counter_coins",
    "counter_uniforms",
    "derive_keys",
    "format_call",
    "format_value",
    "ilog2",
    "is_power_of_two",
    "log2_real",
    "narrow_uint",
    "next_power_of_two",
    "parse_byte_size",
    "parse_call",
    "parse_value",
    "popcount_u32",
    "popcount_u64",
    "spawn_seeds",
]
