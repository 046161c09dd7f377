"""Reference form of the reduction-stability check.

`blobalg.presentation.check_reduction_stability` decides every claim on
walk positions (top id, bottom id, coeff): each stem is walked once per
basis word and every tail on from a stem, so it builds no `w * tail` word,
no diagram of one, and caches no image.  `reference_reduction_stability`
is the direct form: it concatenates each `w * tail` as a `Word`,
evaluates it with `evaluate_word` and prints every label with `str`.  Its
report must equal the fast one line for line.
"""

from typing import List

from blobalg.presentation import is_reduced, phi_equal
from blobalg.reports import Report
from blobalg.walks import regular_basis
from blobalg.words import Word, ascending_run, descending_run, gen_e, gen_u, skip_run


def reference_reduction_stability(n: int) -> Report:
    """The reduction-stability report, every side evaluated as a whole word."""
    rep = Report(f"redux(n={n})", meta={"n": n})
    samples: List[Word] = []
    for w in regular_basis(n - 1):
        samples.append(w)
        if w.letters:
            samples.append(Word(w.n, w.letters + (w.letters[-1],)))

    u_far = gen_u(n + 1, n)
    run_down = descending_run(n - 1, 1, n)
    collapse_tail = u_far * descending_run(n - 1, 1, n + 1) * ascending_run(2, n, n + 1)
    skip_n = skip_run(n - 2, 1, n)
    e_n = gen_e(n)
    blob_tail = e_n * skip_run(n - 1, 2, n) * skip_n
    big_skip = skip_run(n - 2, 1, n + 1)
    e_big = gen_e(n + 1)
    big_tail = (e_big * skip_run(n - 1, 2, n + 1) * big_skip * skip_run(n - 1, 2, n + 1)
                * skip_run(n, 3, n + 1))

    for w in samples:
        label = str(w)
        w_big = w.with_n(n + 1)
        rep.add(f"append-far [{label}]", f"reduced({label})", f"reduced({label} U{n})",
                is_reduced(w_big) == is_reduced(w_big * u_far))

        w_n = w.with_n(n)
        rep.add(f"append-run [{label}]", f"reduced({label})", f"reduced({label} U{n-1}..U1)",
                is_reduced(w_n) == is_reduced(w_n * run_down))

        left = w_big * collapse_tail
        right = w_big * u_far
        rep.add(f"run-collapse [{label}]", left, right, phi_equal(left, right))

        if n % 2 == 1:
            stem = w_n * skip_n
            rep.add(f"append-e [{label}]", f"reduced({stem})", f"reduced({stem} e)",
                    is_reduced(stem) == is_reduced(stem * e_n))
            grown = stem * blob_tail
            rep.add(f"append-blob [{label}]", f"reduced({stem})", f"reduced({grown})",
                    is_reduced(stem) == is_reduced(grown))

        big_stem = w_big * big_skip
        left = u_far * big_stem * big_tail
        right = big_stem * e_big * u_far
        rep.add(f"blob-collapse [{label}]", left, right, phi_equal(left, right))
    return rep
