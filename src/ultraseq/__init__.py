"""Sequence-space algebras under exponential weight scales.

The package is organised bottom-up:

``growth``
    exact symbolic calculus for eventual-growth comparison of the
    closed-form sequences everything else is built from
``weights``
    weight families (graded exponents applied to seminorm values) and
    asymptotic scales, with conversion between the two pictures
``spaces``
    ultranorms, moderate/negligible classification and the quotient
    pseudometric for scalar sequences
``gennum``
    arithmetic on classified sequences and the association predicates
    that compare quotient classes against ordinary numbers
``genfun``
    the same machinery for sequences of smooth functions: seminorms,
    mollifiers, duality pairings, weak association
``temperate``
    certificates that a map respects the moderate class and the ideal,
    and the induced action on quotient elements
``corpus``
    reproducible random inputs for stress tests and demos
``cli``
    the ``ultraseq`` command line front end, the one module that turns
    results into text
"""

from __future__ import annotations

from ultraseq.growth import (
    Comparison,
    GrowthExpr,
    GrowthTerm,
    NotRepresentable,
    ParseError,
    compare,
    eval_log,
    eval_value,
    format_expr,
    limit_value,
    parse,
)
from ultraseq.weights import (
    AsymptoticScale,
    Direction,
    Mode,
    WeightFamily,
    WeightSeq,
    catalog,
    colombeau_weight,
    expdecay_scale,
    power_scale,
    scale_to_weights,
    single_family,
    verify_scale_axioms,
)
from ultraseq.spaces import (
    ClassificationReport,
    NumberSpace,
    SampleError,
    SeqRep,
    UltranormValue,
    classify,
    colombeau_space,
    ideal_check,
    infra_space,
    pseudometric,
    ultranorm,
)
from ultraseq.gennum import (
    AssocKind,
    AssocVerdict,
    GenNumber,
    NotModerate,
    PowerXFamily,
    associate,
    is_zero,
    jx_well_defined,
)
from ultraseq.genfun import (
    FunctionElement,
    FunctionSpace,
    Mollifier,
    TestFunction,
    bump,
    classify_fun,
    make_element,
    make_mollifier,
    pairing,
    seminorm,
    standard_mollifier,
    weak_assoc_fun,
)
from ultraseq.temperate import (
    ExtensionError,
    ScalarMap,
    SeqMap,
    TemperateCertificate,
    TemperateMapReport,
    check_compatible,
    check_moderate,
    check_temperate,
    derivative_map,
    exp_map,
    exp_seq_map,
    extend,
    power_map,
    square_map,
    verify_F2,
)

__version__ = "0.1.0"

__all__ = [
    "Comparison",
    "GrowthExpr",
    "GrowthTerm",
    "NotRepresentable",
    "ParseError",
    "compare",
    "eval_log",
    "eval_value",
    "format_expr",
    "limit_value",
    "parse",
    "AsymptoticScale",
    "Direction",
    "Mode",
    "WeightFamily",
    "WeightSeq",
    "catalog",
    "colombeau_weight",
    "expdecay_scale",
    "power_scale",
    "scale_to_weights",
    "single_family",
    "verify_scale_axioms",
    "ClassificationReport",
    "SampleError",
    "NumberSpace",
    "SeqRep",
    "UltranormValue",
    "classify",
    "colombeau_space",
    "ideal_check",
    "infra_space",
    "pseudometric",
    "ultranorm",
    "AssocKind",
    "AssocVerdict",
    "GenNumber",
    "NotModerate",
    "PowerXFamily",
    "associate",
    "is_zero",
    "jx_well_defined",
    "FunctionElement",
    "FunctionSpace",
    "Mollifier",
    "TestFunction",
    "bump",
    "classify_fun",
    "make_element",
    "make_mollifier",
    "pairing",
    "seminorm",
    "standard_mollifier",
    "weak_assoc_fun",
    "ExtensionError",
    "ScalarMap",
    "SeqMap",
    "TemperateCertificate",
    "TemperateMapReport",
    "check_compatible",
    "check_moderate",
    "check_temperate",
    "derivative_map",
    "exp_map",
    "exp_seq_map",
    "extend",
    "power_map",
    "square_map",
    "verify_F2",
    "__version__",
]
