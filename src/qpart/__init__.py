"""Exact q-series arithmetic, partition-class enumeration, verified
bijections, and a machine-checked suite of partition identities.

The value types (``Partition``, ``ClassSpec``, ``TruncatedSeries``, the
reports and tables) are plain ``__slots__`` classes on one base,
:class:`qpart._record.Record`, not dataclasses: they compare, hash and print
as frozen dataclasses would, but ``dataclasses.fields``, ``replace`` and
``asdict`` do not apply to them.  Importing the package loads no
``dataclasses``, ``inspect``, ``argparse``, ``json``, ``xml`` or
``datetime``.
"""

from .counting import (
    AmbiguityReport,
    CountTable,
    DkRelation,
    c_family_ambiguity,
    count_ak_doubled,
    count_by_enumeration,
    count_by_series,
    count_row,
    count_table,
    derive_dk_relation,
    enumerate_class,
    gf,
    gf_parity_difference,
    pentagonal_indicator,
)
from .partitions import (
    AnchoredPartition,
    ClassSpec,
    Partition,
    PartitionError,
    anchor_decompositions,
    is_member,
)
from .series import (
    CoefficientOverflowError,
    EqualityReport,
    NonUnitConstantError,
    OrderMismatchError,
    SeriesError,
    TruncatedSeries,
    compare_series,
    pochhammer_finite,
    pochhammer_infinite,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguityReport",
    "AnchoredPartition",
    "ClassSpec",
    "CoefficientOverflowError",
    "CountTable",
    "DkRelation",
    "EqualityReport",
    "NonUnitConstantError",
    "OrderMismatchError",
    "Partition",
    "PartitionError",
    "SeriesError",
    "TruncatedSeries",
    "anchor_decompositions",
    "c_family_ambiguity",
    "compare_series",
    "count_ak_doubled",
    "count_by_enumeration",
    "count_by_series",
    "count_row",
    "count_table",
    "derive_dk_relation",
    "enumerate_class",
    "gf",
    "gf_parity_difference",
    "is_member",
    "pentagonal_indicator",
    "pochhammer_finite",
    "pochhammer_infinite",
    "__version__",
]
