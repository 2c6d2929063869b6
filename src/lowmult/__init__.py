"""Low-weight multiples of binary primitive polynomials.

Finds multiples of a primitive P over GF(2) with bounded weight and
degree -- the precomputation behind correlation attacks on LFSR-based
stream ciphers -- either exhaustively or by seeded random sampling.
Two interchangeable exhaustive strategies are provided: a classical
store-and-probe residue table, and a discrete-logarithm table search
backed by a Pohlig-Hellman / baby-step giant-step engine with
Zech-logarithm support.
"""

from .errors import (
    DegreeOutOfRangeError,
    InstanceTooLargeError,
    LogOfZeroError,
    LowMultError,
    MemoryBudgetExceededError,
    NotPrimitiveError,
    PolyParseError,
    VerificationError,
    WeightTooSmallError,
    ZechUndefinedError,
)
from .factorint import factorize, is_probable_prime
from .gf2poly import (
    FieldContext,
    SparsePoly,
    make_context,
    parse_poly,
    random_primitive_poly,
    residue,
    verify_multiple,
)
from .dlog import (
    LogEngine,
    build_engine,
    load_engine,
    predict_table_bytes,
    save_engine,
)
from .search import (
    LogTable,
    MultipleRecord,
    RunReport,
    SearchParams,
    SearchResult,
    build_log_table,
    default_split,
    estimate_count,
    logtmto_find_all,
    second_phase_bound,
    tmto_find_all,
)
from .sampler import (
    ProgressEvent,
    Rng,
    SampleParams,
    SampleResult,
    birthday_logtmto,
    birthday_tmto,
    random_log_sample,
    write_progress_csv,
)
from .tuples import enumerate_tuples, unrank_combination
from .reference import brute_force_log, brute_force_multiples, poly_divides

__version__ = "0.1.0"

__all__ = [
    "DegreeOutOfRangeError", "InstanceTooLargeError", "LogOfZeroError",
    "LowMultError", "MemoryBudgetExceededError", "NotPrimitiveError",
    "PolyParseError", "VerificationError", "WeightTooSmallError",
    "ZechUndefinedError",
    "factorize", "is_probable_prime",
    "FieldContext", "SparsePoly", "make_context", "parse_poly",
    "random_primitive_poly", "residue", "verify_multiple",
    "LogEngine", "build_engine", "load_engine", "predict_table_bytes",
    "save_engine",
    "LogTable", "MultipleRecord", "RunReport",
    "SearchParams", "SearchResult", "build_log_table",
    "default_split", "enumerate_tuples", "estimate_count",
    "logtmto_find_all", "second_phase_bound", "tmto_find_all",
    "ProgressEvent", "Rng", "SampleParams", "SampleResult",
    "birthday_logtmto", "birthday_tmto", "random_log_sample",
    "unrank_combination", "write_progress_csv",
    "brute_force_log", "brute_force_multiples", "poly_divides",
]
