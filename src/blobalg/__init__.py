"""blobalg: exact computations in the blob algebra.

The algebra is realized three ways and the package keeps them in sync:
words in the generators e, U_1..U_{n-1} (`words`), planar blob diagrams
with exact scalar extraction (`diagrams`, `presentation`), and the
Pascal-triangle walk indexing of bases, ideals and standard modules
(`walks`, `towers`, `diamond`).  Every displayed identity of the theory
is machine-checked by the `check_*` functions, exactly where possible and
otherwise over random prime-field specializations.
"""

from .ring import RingElem, parse_scalar
from .words import (
    Word,
    ascending_run,
    blob_cap_word,
    cap_word,
    cap_word_right,
    concat,
    descending_run,
    gen_e,
    gen_u,
    opposite,
    parse_word,
    skip_run,
    unit,
)
from .diagrams import (
    BlobDiagram,
    ScaledDiagram,
    all_diagrams,
    compose,
    compose_scaled,
    diagram_from_dict,
    diagram_to_dict,
    e_diagram,
    flip,
    identity_diagram,
    make_diagram,
    scaled_to_dict,
    through_count,
    u_diagram,
    west_exposed,
)
from .presentation import (
    check_defining_relations,
    check_reduction_stability,
    check_run_identities,
    evaluate_word,
    is_reduced,
    phi_equal,
)
from .walks import (
    Walk,
    all_walks,
    check_diamond_moves,
    check_walk_suite,
    edge_word,
    factor_walk_words,
    parse_walk,
    path_word,
    tail_word,
    walk_words,
)
from .towers import (
    SquaredBasis,
    StandardModule,
    check_ideal_inclusions,
    check_quotient_dims,
    check_span_closure,
    check_standard_modules,
    check_tower,
    check_word_basis,
    default_points,
    ideal_span,
    regular_basis,
    squared_basis,
    standard_module,
)
from .diamond import (
    DiamondWalk,
    all_diamond_walks,
    check_diamond_walks,
    check_envelope_words,
    diamond_from_dict,
    diamond_to_dict,
    diamond_walk,
    envelope_word,
    heights_leq,
    to_diamond,
    weight_of_diamond,
)
from .modlin import DEFAULT_PRIME, SpecPoint, draw_points
from .reports import Check, Report

__version__ = "0.1.0"
