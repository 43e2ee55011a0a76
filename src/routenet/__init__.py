"""Differential proof-net rewriting, routing areas, and a compiler from a
concurrent call-by-value λ-calculus with global references into nets."""

from .errors import (
    BadPayload,
    BudgetExhausted,
    CycleRisk,
    CyclicNet,
    DomainMismatch,
    HasBoxes,
    InterfaceMismatch,
    NotAreaShaped,
    NotStratified,
    ParseError,
    RoutenetError,
    StaleRedex,
    TypingError,
    UnknownLabel,
    UnwiredPort,
)
from .multirel import (
    LabelSet,
    Multirelation,
    comm_relation,
    compose,
    coproduct,
    from_rows,
    from_text,
    identity,
    profile,
    rows_of,
    support,
    to_text,
    trace_formula,
    zero,
)
from .proofnet import (
    BOT,
    Builder,
    Cell,
    Formula,
    Net,
    NetSum,
    ONE,
    bang,
    canonical_equal,
    canonicalize,
    certificate,
    dual,
    fmt_formula,
    par,
    parse,
    parse_formula,
    serialize,
    tensor,
    to_dot,
    validate,
    whynot,
)
from .rewrite import (
    ALL,
    ANYDEPTH_EER,
    Redex,
    apply_redex,
    find_redexes,
    normalize,
    reduction_graph,
)
from .paths import check_acyclic, count_paths, count_paths_all
from .routing import (
    RoutingArea,
    build_area,
    compose_areas,
    delta,
    gamma,
    juxtapose,
    path_semantics,
    read_area,
    semantics,
    trace_net,
    transit,
)
from .lang import (
    fmt_term,
    fmt_type,
    parse_region_ctx,
    parse_term,
    parse_type,
    typecheck_amadio,
    typecheck_lthis,
    values,
)
from .translate import (
    compile_program,
    is_value_net,
    translate,
    translate_type,
    value_certs,
)

__all__ = [n for n in dir() if not n.startswith("_")]
