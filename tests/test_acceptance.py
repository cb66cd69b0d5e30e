"""Acceptance gate: the seven shipped guarantees, one test per guarantee.

Each test prints a single ``criterion N: PASS/FAIL (...)`` line and asserts
the same condition, so a bare ``pytest -s tests/test_acceptance.py`` reads
as a checklist.
"""

import time

from test_corrupted import CORPUS as CORRUPTED_DIR
from test_corrupted import MANIFEST

from catmn import (
    SizeLimits,
    build_final_monad,
    build_initial_comonad,
    build_mn_equivalence,
    build_total_category,
    canonical_c2,
    check_idempotent,
    check_mn_hypotheses,
    load_path,
    make_mn_pair,
    random_spec,
    relabeled_opposite_equivalence,
    render_spec,
    terminal_spec,
    transport_pair,
    verify_adjoint_equivalence,
    verify_factorizations,
    verify_reflection,
    verify_transfer,
)
from catmn.cli import main
from helpers import whisker_left, whisker_right

LIMITS = SizeLimits(max_base_objects=4, max_fiber_elements=5)
SEEDS = range(200)
TRANSPORT_SEEDS = range(50)

_built: dict[int, tuple] = {}
_paired: dict[int, object] = {}


def built():
    """Total categories plus both extremal (co)monads for all 200 seeds."""
    if not _built:
        for seed in SEEDS:
            t = build_total_category(random_spec(seed, LIMITS))
            _built[seed] = (t, build_final_monad(t), build_initial_comonad(t))
    return _built


def paired():
    if not _paired:
        for seed, (t, m, c) in built().items():
            _paired[seed] = make_mn_pair(m, c)
    return _paired


def conclude(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: FAIL ({detail})"


def object_bijective(F) -> bool:
    images = list(F.obj_map.values())
    return (
        sorted(F.obj_map) == sorted(F.source.objects)
        and len(set(images)) == len(images)
        and sorted(images) == sorted(F.target.objects)
    )


def test_criterion_1_random_corpus_yields_idempotent_monads():
    start = time.perf_counter()
    bad = [
        seed
        for seed, (t, m, c) in built().items()
        if not (check_idempotent(m).ok and check_idempotent(c).ok)
    ]
    elapsed = time.perf_counter() - start
    detail = f"{len(SEEDS)} seeded specs built and law-checked in {elapsed:.2f}s, budget 10s"
    if bad:
        detail += f"; failing seeds {bad[:5]}"
    conclude(1, not bad and elapsed < 10.0, detail)


def test_criterion_2_reflection_sweeps_come_back_empty():
    bad = [
        seed
        for seed, pair in paired().items()
        if not (
            verify_reflection(pair.reflection).ok
            and verify_reflection(pair.coreflection).ok
        )
    ]
    detail = f"universal-property sweeps on {len(SEEDS)} instances"
    if bad:
        detail += f"; failing seeds {bad[:5]}"
    conclude(2, not bad, detail)


def test_criterion_3_equivalence_pipeline_and_canonical_shape(c2_pair, c2_equivalence):
    bad = []
    for seed, pair in paired().items():
        if not check_mn_hypotheses(pair).ok:
            bad.append((seed, "hypotheses"))
            continue
        eq = build_mn_equivalence(pair)
        if not verify_adjoint_equivalence(eq).ok:
            bad.append((seed, "adjoint-equivalence"))
            continue
        if not verify_factorizations(pair, eq).ok:
            bad.append((seed, "factorizations"))
    c2_ok = (
        len(c2_pair.reflection.subcategory.objects) == 2
        and len(c2_pair.coreflection.subcategory.objects) == 2
        and object_bijective(c2_equivalence.forward)
        and object_bijective(c2_equivalence.backward)
    )
    detail = f"hypotheses+equivalence+factorizations on {len(SEEDS)} instances; canonical two-point shape"
    if bad:
        detail += f"; failures {bad[:5]}"
    if not c2_ok:
        detail += "; canonical instance misshapen"
    conclude(3, not bad and c2_ok, detail)


def test_criterion_4_whiskered_transformations_are_identities(
    c2_total, c2_monad, c2_comonad
):
    term = build_total_category(terminal_spec())
    instances = list(built().values())
    instances.append((term, build_final_monad(term), build_initial_comonad(term)))
    instances.append((c2_total, c2_monad, c2_comonad))
    bad = []
    for t, m, c in instances:
        cat = t.total
        N, eta = m.functor, m.unit
        M, psi = c.functor, c.unit
        whiskered = [
            (whisker_left(N, eta), N),
            (whisker_right(eta, N), N),
            (whisker_left(M, psi), M),
            (whisker_right(psi, M), M),
            (whisker_left(N, psi), N),
            (whisker_left(M, eta), M),
        ]
        for wh, F in whiskered:
            for x in cat.objects:
                if wh.components[x] != cat.identity[F.on_obj(x)]:
                    bad.append((cat.name, wh.name, x))
    detail = f"6 whiskerings x {len(instances)} instances, exact identity names"
    if bad:
        detail += f"; counterexamples {bad[:3]}"
    conclude(4, not bad, detail)


def test_criterion_5_transport_across_the_relabeled_opposite():
    bad = []
    for seed in TRANSPORT_SEEDS:
        t, m, c = built()[seed]
        eq = relabeled_opposite_equivalence(t.total)
        r = transport_pair(eq, m, c)
        if not (
            check_idempotent(r.induced_monad).ok
            and check_idempotent(r.induced_comonad).ok
        ):
            bad.append((seed, "induced idempotence"))
            continue
        if not verify_transfer(m, c, r).ok:
            bad.append((seed, "transfer"))
            continue
        pair = make_mn_pair(r.induced_monad, r.induced_comonad)
        if not (
            verify_reflection(pair.reflection).ok
            and verify_reflection(pair.coreflection).ok
            and check_mn_hypotheses(pair).ok
        ):
            bad.append((seed, "induced sweeps"))
            continue
        eq2 = build_mn_equivalence(pair)
        if not (
            verify_adjoint_equivalence(eq2).ok
            and verify_factorizations(pair, eq2).ok
        ):
            bad.append((seed, "induced equivalence"))
    detail = f"{len(TRANSPORT_SEEDS)} instances carried across the duality and fully re-verified"
    if bad:
        detail += f"; failures {bad[:5]}"
    conclude(5, not bad, detail)


def test_criterion_6_negative_controls_all_caught():
    false_passes = []
    unnamed = []
    for filename, (checker, rule, witness) in sorted(MANIFEST.items()):
        report = checker(load_path(CORRUPTED_DIR / filename))
        if report.ok:
            false_passes.append(filename)
            continue
        if witness not in {v.subject for v in report.violations if v.rule == rule}:
            unnamed.append(filename)
    required = {
        "associativity",
        "naturality-square",
        "action-monotone",
        "fiber-top",
        "reflection-closed-form",
    }
    covered = {rule for _, rule, _ in MANIFEST.values()}
    ok = (
        not false_passes
        and not unnamed
        and required <= covered
        and len(MANIFEST) >= 10
    )
    detail = f"{len(MANIFEST)} corrupted files, {len(false_passes)} false passes"
    if unnamed:
        detail += f"; witness not named in {unnamed}"
    missing = required - covered
    if missing:
        detail += f"; corruption classes missing {sorted(missing)}"
    conclude(6, ok, detail)


def test_criterion_7_byte_determinism(tmp_path, capsys):
    spec_file = tmp_path / "c2.cm"
    spec_file.write_text(render_spec(canonical_c2()))
    bad_file = tmp_path / "bad.cm"
    bad_file.write_text(
        (CORRUPTED_DIR / "spec_non_monotone.cm").read_text()
    )

    def run(argv):
        main(argv)
        return capsys.readouterr().out

    dots, checks, transports, validations = [], [], [], []
    for _ in range(3):
        dot = tmp_path / "out.dot"
        run(["export-dot", str(spec_file), "--out", str(dot)])
        dots.append(dot.read_bytes())
        checks.append(run(["mn-check", str(spec_file)]))
        transports.append(run(["transport", str(spec_file)]))
        validations.append(run(["validate", str(bad_file)]))

    stable = all(len(set(group)) == 1 for group in (dots, checks, transports, validations))
    seeds_stable = all(
        random_spec(s, LIMITS) == random_spec(s, LIMITS)
        and render_spec(random_spec(s, LIMITS)) == render_spec(random_spec(s, LIMITS))
        for s in (0, 7, 199)
    ) and random_spec(7, LIMITS) != random_spec(8, LIMITS)
    detail = "export-dot, mn-check, transport, validate byte-identical across reruns; seeded generation reproducible"
    if not stable:
        detail = "outputs differ between runs"
    if not seeds_stable:
        detail += "; random_spec not reproducible"
    conclude(7, stable and seeds_stable, detail)
