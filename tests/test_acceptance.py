"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Numeric oracles (dense grid + golden section, sign bisection) live in
``oracles.py`` and never touch the closed-form code paths they audit.
"""

import math
import os
import random
import statistics
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from uavhitch import (
    GeneratorParams,
    PairGeometry,
    PlannerConfig,
    UavTask,
    VehicleOffer,
    brute_force_match,
    build_saving_matrix,
    case_theta_range,
    eligibility,
    generate_scenario,
    max_hitch_distance,
    msa_match,
    plan_pair,
    run_trial,
    scale_scenario,
    select_vehicle,
    verify_duals,
)
from uavhitch.cli import main as cli_main
from uavhitch.simlab import derive_trial_seed
from oracles import (
    bisect_max_hitch,
    oracle_min_consumption,
    random_instance,
    scalar_eligibility,
    scalar_optimal_distance,
)

REPORT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "reports")

REGIME_COUNTS = {"ho": 2500, "charging": 2500, "pi": 1500, "deadline": 2000, "battery": 1500}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_closed_form_vs_grid_oracle():
    rng = random.Random(20260810)
    t0 = time.monotonic()
    worst = 0.0
    failures = []
    total = 0
    for regime, count in REGIME_COUNTS.items():
        for _ in range(count):
            cfg, task, offer, geom, limited = random_instance(rng, regime)
            plan = plan_pair(cfg, task, offer, geom)
            oracle = oracle_min_consumption(cfg.omega, task, offer, geom, limited)
            scale = max(task.direct_time, abs(oracle))
            diff = abs(plan.consumption - oracle)
            worst = max(worst, diff / scale)
            if diff > 1e-6 * scale:
                failures.append((regime, task, offer, geom, diff))
            total += 1
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    report(
        "criterion 1 (closed form vs oracle)",
        ok,
        f"{total} instances, worst rel diff {worst:.3e}, {elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert elapsed < 60.0


def test_criterion_2_speed_threshold():
    # formula check in exact arithmetic: (1 - 4/5) * 60 = 12
    exact = (1 - Fraction(4, 5)) * 60
    formula_ok = exact == 12

    cfg = PlannerConfig(omega=0.8)
    task = UavTask(x=5, u=60)
    at_threshold = eligibility(cfg, task, VehicleOffer(v=12.0), PairGeometry(0.0))
    below = eligibility(cfg, task, VehicleOffer(v=11.0), PairGeometry(0.0))
    above = eligibility(cfg, task, VehicleOffer(v=12.0 + 1e-6), PairGeometry(0.0))
    behavior_ok = (
        not at_threshold.eligible
        and at_threshold.reason.value == "speed_too_low"
        and not below.eligible
        and above.eligible
    )

    plan = plan_pair(cfg, task, VehicleOffer(v=12.0 + 1e-9), PairGeometry(0.0))
    baseline = task.direct_time
    near_ok = abs(plan.consumption - baseline) <= 1e-6

    ok = formula_ok and behavior_ok and near_ok
    report(
        "criterion 2 (speed threshold 12 km/h)",
        ok,
        f"exact formula {exact}, consumption at 12+tol differs from baseline by "
        f"{abs(plan.consumption - baseline):.2e}",
    )
    assert ok


def test_criterion_3_degeneracy_identities():
    # The gamma = 0 offer is the ride-only (HO) case, and an infinite
    # battery the unbounded model: both must give the scalar reference's
    # eligibility and unbounded-battery plan bit for bit.
    rng = random.Random(3)
    failures = []
    for _ in range(1000):
        cfg, task, offer, geom, _ = random_instance(rng, "ho")
        if eligibility(cfg, task, offer, geom) != scalar_eligibility(cfg, task, offer, geom, 0.0):
            failures.append(("eligibility", task, offer, geom))
        if plan_pair(cfg, task, offer, geom) != scalar_optimal_distance(cfg, task, offer, geom):
            failures.append(("distance", task, offer, geom))

        cfg2, task2, offer2, geom2, _ = random_instance(rng, "charging")
        if offer2.gamma > 0.0:
            unbounded = replace(task2, battery_capacity=math.inf, battery_level=0.0)
            if plan_pair(cfg2, unbounded, offer2, geom2) != scalar_optimal_distance(
                cfg2, unbounded, offer2, geom2
            ):
                failures.append(("limited@inf", task2, offer2, geom2))
            full = replace(task2, battery_capacity=1.0, battery_level=1.0)
            lim = plan_pair(cfg2, full, offer2, geom2)
            ho = plan_pair(cfg2, full, replace(offer2, gamma=0.0), geom2)
            if not (
                lim.y_star == ho.y_star
                and lim.binding == ho.binding
                and abs(lim.consumption - ho.consumption) < 1e-12
            ):
                failures.append(("limited@full", task2, offer2, geom2))
    report("criterion 3 (degeneracy identities)", not failures, "1000 instances, exact equality")
    assert not failures, failures[:3]


def test_criterion_4_angle_properties():
    rng = random.Random(4)
    failures = []
    for _ in range(2000):
        cfg, task, offer, geom, _ = random_instance(rng, "ho")
        e = eligibility(cfg, task, offer, geom)
        if e.threshold_angle is not None and e.threshold_angle > math.pi / 2 + 1e-12:
            failures.append(("phi>pi/2", task, offer))
        plan = plan_pair(cfg, task, offer, geom)
        if plan.y_star > 0.0 and plan.y_star > task.x * math.cos(geom.theta) + 1e-9:
            failures.append(("y*>xcos", task, offer, geom))

    u, v = 60.0, 40.0
    task = UavTask(x=5, u=u)
    geom = PairGeometry(0.0)
    omegas = [0.05 + 0.95 * i / 49 for i in range(50)]
    gammas = [3.0 * j / 49 for j in range(50)]
    strict_checked = 0
    for omega in omegas:
        cfg = PlannerConfig(omega=omega)
        prev = None
        for gamma in gammas:
            e = eligibility(cfg, task, VehicleOffer(v=v, gamma=gamma), geom)
            pi_branch = e.threshold_angle == math.pi
            expect_pi = e.threshold_angle is not None and omega * gamma >= 1.0 - omega + v / u
            if pi_branch != expect_pi:
                failures.append(("pi-branch", omega, gamma))
            if e.threshold_angle is not None and prev is not None:
                if e.threshold_angle < prev - 1e-12:
                    failures.append(("decreasing", omega, gamma))
                if e.threshold_angle < math.pi and not e.threshold_angle > prev:
                    failures.append(("not strict", omega, gamma))
                else:
                    strict_checked += 1
            prev = e.threshold_angle
    report(
        "criterion 4 (angle properties)",
        not failures,
        f"ride-only bound on 2000 instances; 50x50 grid, {strict_checked} strict increases",
    )
    assert not failures, failures[:5]


def _printed_inverse_variant(x, u, v, d, theta):
    # candidate closed form under audit: both terms carry (1 - u^2/v^2) as a
    # prefactor where the quadratic root divides by it
    pref = 1.0 - u * u / (v * v)
    s = (u * u / (v * v) - 1.0) * x * x * math.sin(theta) ** 2 + (
        (u / v) * x * math.cos(theta) - d * u
    ) ** 2
    if s < 0.0:
        return math.nan
    return pref * (x * math.cos(theta) - d * u * u / v) + pref * math.sqrt(s)


def _audit_deadline_selection_rule(rng):
    """Sample two-vehicle choices where both rides bind at the deadline and
    score the two pairwise shortcut rules against the consumption argmin."""
    total = agree_alt = agree_fixed = 0
    while total < 500:
        omega = rng.uniform(0.3, 0.95)
        cfg = PlannerConfig(omega=omega)
        x, u = rng.uniform(2.0, 20.0), rng.uniform(40.0, 100.0)
        task = UavTask(x=x, u=u, deadline=(x / u) * rng.uniform(1.02, 1.3))
        pair = []
        for _ in range(2):
            offer = VehicleOffer(v=rng.uniform(10.0, 60.0), gamma=rng.uniform(0.05, 0.8))
            geom = PairGeometry(rng.uniform(0.0, 1.0))
            pair.append((offer, geom))
        plans = [plan_pair(cfg, task, off, g) for off, g in pair]
        if any(p.binding.value != "deadline" for p in plans):
            continue
        caps = [bisect_max_hitch(task, off, g) for off, g in pair]
        winner, _ = select_vehicle(cfg, task, pair)
        (off_l, _), (off_k, _) = pair
        denom = (1.0 - (1.0 + off_k.gamma) * omega) * off_l.v
        if denom == 0.0:
            continue
        ratio = ((1.0 - (1.0 + off_l.gamma) * omega) * off_k.v) / denom
        alt_pick = 1 if caps[1] > ratio * caps[0] else 0
        fixed_pick = (
            1
            if (1.0 + off_k.gamma) * caps[1] / off_k.v > (1.0 + off_l.gamma) * caps[0] / off_l.v
            else 0
        )
        total += 1
        agree_alt += alt_pick == winner
        agree_fixed += fixed_pick == winner
    return total, agree_alt, agree_fixed


def test_criterion_5_deadline_inverse(tmp_path):
    rng = random.Random(5)
    failures = []
    worst = 0.0
    printed_diffs = []
    t0 = time.monotonic()
    for i in range(10000):
        x = rng.uniform(0.5, 20.0)
        u = rng.uniform(20.0, 100.0)
        v = u if i % 7 == 0 else rng.uniform(5.0, 80.0)
        theta = [0.0, math.pi / 2, math.pi, rng.uniform(0, math.pi)][i % 4]
        d = (x / u) * rng.uniform(1.0, 3.0)
        task = UavTask(x=x, u=u, deadline=d)
        offer, geom = VehicleOffer(v=v), PairGeometry(theta)
        got = max_hitch_distance(task, offer, geom)
        want = bisect_max_hitch(task, offer, geom)
        worst = max(worst, abs(got - want))
        if abs(got - want) > 1e-9:
            failures.append((x, u, v, theta, d, got, want))
        if v != u:
            alt = _printed_inverse_variant(x, u, v, d, theta)
            printed_diffs.append(abs(alt - want) if not math.isnan(alt) else math.inf)
    elapsed = time.monotonic() - t0

    os.makedirs(REPORT_DIR, exist_ok=True)
    finite = [d for d in printed_diffs if math.isfinite(d)]
    agree = sum(1 for d in printed_diffs if d <= 1e-6)
    rule_total, rule_agree, corrected_agree = _audit_deadline_selection_rule(rng)
    with open(os.path.join(REPORT_DIR, "formula_checks.md"), "w", encoding="utf-8") as fh:
        fh.write(
            "# Candidate closed-form checks\n\n"
            "## Maximum riding distance under a deadline\n\n"
            "The production solver takes the largest feasible root of\n"
            "`(1 - u^2/v^2) y^2 + (2 D u^2/v - 2 x cos(theta)) y + (x^2 - u^2 D^2) = 0`\n"
            "and is validated against a sign-bisection oracle on T(y) = D.\n\n"
            "An alternative closed form that multiplies both the linear term and\n"
            "the square root by `(1 - u^2/v^2)` (instead of dividing by it) was\n"
            "evaluated on the same 10,000 random instances (u = v excluded):\n\n"
            f"- instances agreeing with the oracle within 1e-6 km: {agree} of {len(printed_diffs)}\n"
            f"- median |difference|: {statistics.median(finite):.6g} km\n"
            f"- max |difference|: {max(finite):.6g} km\n\n"
            "The two expressions differ by the factor `(1 - u^2/v^2)^2`, so the\n"
            "variant only matches where that factor is 1; the quadratic-root\n"
            "implementation is the one shipped.\n\n"
            "## Selection between two deadline-limited vehicles\n\n"
            "With both rides capped by the deadline, consumption is\n"
            "`D - omega*(1+gamma)*y_cap/v`, so the better vehicle is the one with\n"
            "the larger `(1+gamma)*y_cap/v`. An alternative pairwise rule using the\n"
            "factor `(1-(1+gamma)*omega)/v` instead was audited against the direct\n"
            f"consumption argmin on {rule_total} two-vehicle instances:\n\n"
            f"- alternative rule picks the argmin winner: {rule_agree} of {rule_total}\n"
            f"- `(1+gamma)/v` rule picks the argmin winner: {corrected_agree} of {rule_total}\n\n"
            "The planner compares consumptions directly and never evaluates either\n"
            "pairwise shortcut.\n"
        )

    ok = not failures and elapsed < 60.0
    report(
        "criterion 5 (deadline inverse vs bisection)",
        ok,
        f"10000 instances, worst |diff| {worst:.2e} km, {elapsed:.1f}s; "
        f"alternative printed form matches oracle on {agree}/{len(printed_diffs)} "
        "(see reports/formula_checks.md)",
    )
    assert not failures, failures[:3]


def test_criterion_6_matching_optimality():
    rng = random.Random(6)
    t0 = time.monotonic()
    failures = []
    worst_gap = 0.0
    for _ in range(1000):
        n_uavs = rng.randint(1, 5)
        n_veh = rng.randint(1, 5)
        cfg = PlannerConfig(omega=0.8)
        tasks = []
        for _ in range(n_uavs):
            x = rng.uniform(0.5, 20.0)
            deadline = math.inf if rng.random() < 0.7 else (x / 60.0) * rng.uniform(1.0, 2.0)
            tasks.append(UavTask(x=x, u=60.0, deadline=deadline))
        # omega*gamma stays below 1 - omega + v/u for every sampled v, so no
        # offer needs a deadline to be well posed
        offers = [
            VehicleOffer(
                v=rng.uniform(15.0, 70.0),
                gamma=rng.choice([0.0, 0.2, 0.3]),
                capacity=rng.randint(1, 3),
            )
            for _ in range(n_veh)
        ]
        theta = [[rng.uniform(0.0, math.pi) for _ in range(n_veh)] for _ in range(n_uavs)]
        m = build_saving_matrix(cfg, tasks, offers, theta)
        msa = msa_match(m)
        opt = brute_force_match(m)
        if abs(msa.total_saving - opt.total_saving) > 1e-9:
            failures.append(("value", msa.total_saving, opt.total_saving))
        if not verify_duals(m, msa, msa.duals):
            failures.append(("certificate", m.weights))
        gap = abs(sum(msa.duals.p) + sum(msa.duals.q) - msa.total_saving)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9:
            failures.append(("duality gap", gap))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    report(
        "criterion 6 (matching optimality)",
        ok,
        f"1000 instances (capacities up to 3), exact to 1e-9, certificates pass, "
        f"worst primal-dual gap {worst_gap:.1e}, {elapsed:.1f}s",
    )
    assert not failures, failures[:3]
    assert elapsed < 30.0


def test_criterion_7_experiment_dominance_and_gap():
    counts = [5, 10, 20, 30, 40]
    n_trials = 100
    seed = 20260810
    failures = []
    summary = []
    for case in (1, 2):
        params = GeneratorParams(n_uavs=0, n_vehicles=40, theta_range=case_theta_range(case))
        per_count = {}
        for count in counts:
            reports = []
            p = replace(params, n_uavs=count)
            for t in range(n_trials):
                s = generate_scenario(p, derive_trial_seed(seed, count, t))
                r = run_trial(s)
                if not (
                    r.total_msa <= r.total_greedy + 1e-9
                    and r.total_greedy <= r.total_direct + 1e-9
                ):
                    failures.append(("ordering", case, count, t))
                if r.iterations > count * 40:
                    failures.append(("iteration bound", case, count, t, r.iterations))
                reports.append(r)
            per_count[count] = reports
        reps = per_count[counts[-1]]
        mean = lambda xs: sum(xs) / len(xs)
        delta = mean([r.saving_msa for r in reps]) - mean([r.saving_greedy for r in reps])
        norms = {
            "per direct total": delta / mean([r.total_direct for r in reps]),
            "per greedy saving": delta / mean([r.saving_greedy for r in reps]),
            "per greedy total": delta / mean([r.total_greedy for r in reps]),
        }
        in_band = {k: 0.05 <= v <= 0.35 for k, v in norms.items()}
        if not any(in_band.values()):
            failures.append(("band", case, norms))
        iters = [r.iterations for r in reps]
        summary.append(
            f"case {case}: gaps "
            + ", ".join(f"{k}={v:.3f}" for k, v in norms.items())
            + f"; iterations at I=40: mean {mean([float(i) for i in iters]):.1f}, "
            f"max {max(iters)} (hard bound {counts[-1] * 40})"
        )
    ok = not failures
    report("criterion 7 (experiment dominance and gap band)", ok, " | ".join(summary))
    assert not failures, failures[:5]


def test_criterion_8_homogeneity():
    failures = []
    for case in (1, 2):
        p = GeneratorParams(n_uavs=8, n_vehicles=8, theta_range=case_theta_range(case))
        s = generate_scenario(p, 88 + case)
        doubled = scale_scenario(s, 2.0)
        if sum(t.direct_time for t in doubled.tasks) != 2.0 * sum(
            t.direct_time for t in s.tasks
        ):
            failures.append(("direct", case))
        for i, task in enumerate(s.tasks):
            geoms = [PairGeometry(theta) for theta in s.geoms[i].tolist()]
            for j, offer in enumerate(s.offers):
                p1 = plan_pair(s.config, task, offer, geoms[j])
                p2 = plan_pair(doubled.config, doubled.tasks[i], offer, geoms[j])
                if p1.binding.value == "interior" and p2.consumption != 2.0 * p1.consumption:
                    failures.append(("interior consumption", case, i, j))
            offers = list(zip(s.offers, geoms))
            idx1, _ = select_vehicle(s.config, task, offers)
            idx2, _ = select_vehicle(s.config, doubled.tasks[i], offers)
            if idx1 != idx2:
                failures.append(("argmin", case, i))
    report(
        "criterion 8 (homogeneity under x-scaling)",
        not failures,
        "doubling every x doubles direct totals and interior consumption bit-exactly; "
        "vehicle choices unchanged",
    )
    assert not failures, failures[:5]


def test_criterion_9_determinism(tmp_path):
    def run(tag):
        out = tmp_path / f"{tag}.csv"
        scen = tmp_path / f"scen_{tag}"
        code = cli_main(
            [
                "simulate", "--case", "2", "--uavs", "4,8", "--vehicles", "10",
                "--trials", "5", "--seed", "99",
                "--output", str(out), "--emit-scenarios", str(scen),
            ]
        )
        assert code == 0
        blob = out.read_bytes()
        files = {f.name: f.read_bytes() for f in sorted(scen.glob("*.json"))}
        return blob, files

    csv_a, scen_a = run("a")
    csv_b, scen_b = run("b")
    ok = csv_a == csv_b and scen_a == scen_b and len(scen_a) == 10
    report(
        "criterion 9 (byte-identical reruns)",
        ok,
        f"{len(scen_a)} scenario files and experiment CSV identical across runs",
    )
    assert ok
