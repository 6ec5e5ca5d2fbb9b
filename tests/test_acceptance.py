"""End-to-end checks at validated scales.

Each test prints exactly one PASS/FAIL line carrying the measured numbers
and the tolerance they are held to, then asserts.  Seeds and path counts
are fixed; if a statistical check ever needs reworking, double the path
count -- never shop for seeds.
"""
import itertools

import numpy as np
from click.testing import CliRunner

from pqsched import (
    ConfusionMatrix,
    CostFn,
    McParams,
    PassingCurves,
    SystemConfig,
    TriageConfig,
    TRUNCATE_AT_HORIZON,
    bm_workload_paths,
    compare_policies,
    derive_predicted_params,
    evaluate_grid,
    jstar,
    kkt_solve,
    quadratic_coefficients,
    relative_regret,
    replicate,
    reviewer_params,
    reviewer_queue_cost,
    run_path,
    save_config,
    two_class_xstar,
    workload_variance_rate,
)
from pqsched.cli import main as cli_main
from pqsched.model import mixture_cost
from helpers import exact_int_w2, kkt_per_path, reviewer_system_config, ten_class_config


def _verdict(ok, n, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. policy ordering on the 10-class content-moderation analogue


def test_criterion_01_policy_ordering():
    cfg = ten_class_config()
    n = 10_000
    # every policy on each seed's one arrival stream, seeds 0..n-1
    J = {kind: s.terminal_costs for kind, s in compare_policies(
        cfg, ("oracle", "pcmu", "naive"), n, 0, rule=TRUNCATE_AT_HORIZON).items()}
    d_po = J["pcmu"] - J["oracle"]
    d_np = J["naive"] - J["pcmu"]
    z_po = d_po.mean() / (d_po.std(ddof=1) / np.sqrt(n))
    z_np = d_np.mean() / (d_np.std(ddof=1) / np.sqrt(n))
    closure = d_np.mean() / (J["naive"] - J["oracle"]).mean()
    ordered = J["oracle"].mean() < J["pcmu"].mean() < J["naive"].mean()
    ok = ordered and z_po > 2.0 and z_np > 2.0 and 0.10 <= closure <= 0.60
    assert _verdict(ok, 1, (
        f"mean J(1) oracle {J['oracle'].mean():.4f} < pcmu "
        f"{J['pcmu'].mean():.4f} < naive {J['naive'].mean():.4f}, "
        f"gap z-scores {z_po:.1f}/{z_np:.1f} (need > 2), "
        f"gap closure {closure:.3f} (need 0.10..0.60), {n} paired seeds"))


# ---------------------------------------------------------------------------
# 2. allocation solver vs brute-force simplex grid


def _grid_minimizer(r, params, costs, final_step_frac=1e-4):
    K = len(params.rho_tilde)
    mixes = [mixture_cost(l, params, costs) for l in range(K)]
    lam_t, rho_t = params.lambda_tilde, params.rho_tilde

    def obj(X):
        cols = [m(X[:, l] / rho_t[l]) for l, m in enumerate(mixes)]
        return (lam_t * np.stack(cols, axis=1)).sum(axis=1)

    def with_last(pts):
        ok = (pts > -1e-12).all(axis=1) & (pts.sum(axis=1) <= r * (1 + 1e-12))
        pts = np.clip(pts[ok], 0.0, None)
        last = np.clip(r - pts.sum(axis=1), 0.0, None)
        return np.column_stack([pts, last])

    step = r / 10.0
    free = K - 1
    X = with_last(np.array(list(itertools.product(range(11), repeat=free)),
                           dtype=float) * step)
    best = X[np.argmin(obj(X))]
    while step > final_step_frac * r * 1.0000001:
        step /= 10.0
        offs = np.array(list(itertools.product(range(-10, 11), repeat=free)),
                        dtype=float) * step
        X = with_last(best[:free] + offs)
        best = X[np.argmin(obj(X))]
    return best


def test_criterion_02_kkt_vs_brute_force():
    rng = np.random.default_rng(42)
    worst_dx = 0.0
    worst_bal = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(K) * 2.0)
        mu = rng.uniform(0.5, 10.0, K)
        lam = rng.uniform(0.5, 5.0)
        coeff = rng.uniform(0.5, 5.0, K)
        power = rng.choice([2.0, 2.5, 3.0], K)
        Q = rng.dirichlet(np.ones(K) * 1.5, size=K)
        cfg = SystemConfig(
            lam=lam, prevalences=p, service_rates=mu,
            costs=tuple(CostFn(c, pw) for c, pw in zip(coeff, power)),
            confusion=ConfusionMatrix(Q))
        params = derive_predicted_params(cfg)
        r = rng.uniform(0.2, 3.0)
        alloc = kkt_solve(r, params, cfg.costs)
        xg = _grid_minimizer(r, params, cfg.costs)
        worst_dx = max(worst_dx, np.max(np.abs(alloc.x - xg)) / (1e-4 * r))
        mixes = [mixture_cost(l, params, cfg.costs) for l in range(K)]
        marg = np.array([params.mu_tilde[l]
                         * mixes[l].prime(alloc.x[l] / params.rho_tilde[l])
                         for l in range(K)])
        worst_bal = max(worst_bal, (marg.max() - marg.min()) / marg.mean())
    ok = worst_dx <= 2.0 and worst_bal < 1e-6
    assert _verdict(ok, 2, (
        f"100 random instances, worst |x_kkt - x_grid| = {worst_dx:.3f} "
        f"grid steps (need <= 2 steps of 1e-4*r), worst marginal-balance "
        f"residual {worst_bal:.2e} (need < 1e-6)"))


# ---------------------------------------------------------------------------
# 3. two-class closed form and the one-sided-miss direction


def test_criterion_03_two_class_closed_form():
    cfg = SystemConfig(lam=1.0, prevalences=(0.3, 0.7),
                       service_rates=(2.0, 1.0),
                       costs=(CostFn(1.0), CostFn(10.0)),
                       confusion=ConfusionMatrix.identity(2), horizon=1.0)
    target = np.array([0.51724, 0.48276])
    x_closed = two_class_xstar(1.0, None, cfg)
    x_kkt = kkt_solve(1.0, derive_predicted_params(cfg), cfg.costs).x
    err = max(np.max(np.abs(x_closed - target)), np.max(np.abs(x_kkt - target)))
    # one-sided miss: slow-class jobs leak into the fast label
    x_miss = two_class_xstar(1.0, [[1.0, 0.0], [0.1, 0.9]], cfg)
    ok = err <= 1e-5 and x_miss[0] < x_closed[0]
    assert _verdict(ok, 3, (
        f"x*(1; I) = ({x_closed[0]:.6f}, {x_closed[1]:.6f}) from closed form "
        f"and solver, max dev {err:.1e} from (0.51724, 0.48276) "
        f"(need <= 1e-5); x1 falls to {x_miss[0]:.6f} under q21=0.1"))


# ---------------------------------------------------------------------------
# 4. quadratic-cost identities


def test_criterion_04_quadratic_identities():
    cfg = SystemConfig(lam=1.0, prevalences=(0.3, 0.7),
                       service_rates=(2.0, 1.0),
                       costs=(CostFn(1.0), CostFn(10.0)),
                       confusion=ConfusionMatrix(((0.9, 0.1), (0.2, 0.8))),
                       horizon=1.0)
    w = bm_workload_paths(2.0, 400, 1.0, 200, seed=11)
    general = kkt_per_path(cfg, w)
    fast = jstar(None, cfg, w).per_path
    path_dev = float(np.max(np.abs(general - fast)))

    rng = np.random.default_rng(2024)
    min_margin = np.inf
    worst_beta = 0.0
    for _ in range(1000):
        Q = rng.dirichlet(np.ones(2), size=2)
        coeffs = quadratic_coefficients(cfg.with_confusion(ConfusionMatrix(Q)))
        min_margin = min(min_margin, coeffs.jnaive_coeff - coeffs.jstar_coeff)
        b1, b2 = coeffs.beta
        worst_beta = max(worst_beta, abs(coeffs.jstar_coeff
                                         - b1 * b2 / (b1 + b2))
                         / coeffs.jstar_coeff)
    ok = path_dev <= 1e-8 and min_margin >= -1e-12 and worst_beta <= 1e-12
    assert _verdict(ok, 4, (
        f"general vs coefficient jstar max path dev {path_dev:.2e} "
        f"(need <= 1e-8); min jnaive-jstar over 1000 random Q "
        f"{min_margin:.2e} (need >= -1e-12); worst beta-identity rel dev "
        f"{worst_beta:.2e} (need <= 1e-12)"))


# ---------------------------------------------------------------------------
# 5. workload invariance across policies and classifiers


def test_criterion_05_workload_invariance():
    def build(confusion):
        return SystemConfig(lam=50.0, prevalences=(0.3, 0.7),
                            service_rates=(100.0, 50.0),
                            costs=(CostFn(1.0), CostFn(10.0)),
                            confusion=ConfusionMatrix(confusion), horizon=2.0)

    cfg_a = build(((0.9, 0.1), (0.2, 0.8)))
    cfg_b = build(((0.6, 0.4), (0.5, 0.5)))
    worst = 0.0
    for seed in range(100):
        runs = [run_path(cfg_a, kind, seed=seed, sampling_grid=101)
                for kind in ("oracle", "naive", "pcmu", "fcfs")]
        runs.append(run_path(cfg_b, "pcmu", seed=seed, sampling_grid=101))
        base = runs[0]
        for other in runs[1:]:
            if len(other.arrival_workloads) != len(base.arrival_workloads):
                worst = np.inf
                break
            worst = max(
                worst,
                float(np.max(np.abs(other.arrival_workloads
                                    - base.arrival_workloads), initial=0.0)),
                float(np.max(np.abs(other.curves.workload
                                    - base.curves.workload))))
    ok = worst <= 1e-9
    assert _verdict(ok, 5, (
        f"100 paired paths x 4 policies x 2 confusion matrices: max "
        f"workload deviation {worst:.2e} event-for-event and on the "
        f"sampling grid (need <= 1e-9)"))


# ---------------------------------------------------------------------------
# 6. DES vs reflected-Brownian workload cost as arrivals/path scale up


def _critical_mix_config(horizon):
    # rho = 1 exactly; deterministic interarrivals and services leave the
    # class mix as the only variance source, so v is small and exact
    p2, mu2 = 0.02, 8.0
    mu1 = (1.0 - p2) / (1.0 / 100.0 - p2 / mu2)
    return SystemConfig(lam=100.0, prevalences=(1.0 - p2, p2),
                        service_rates=(mu1, mu2),
                        costs=(CostFn(1.0), CostFn(1.0)),
                        confusion=ConfusionMatrix.identity(2),
                        horizon=horizon, arrival_dist="deterministic",
                        service_dist="deterministic")


def _rbm_mean_int_sq(v, n_steps, horizon, n_per, n_chunks, seed0):
    total, count = 0.0, 0
    for c in range(n_chunks):
        isq = bm_workload_paths(v, n_steps, horizon, n_per,
                                seed=seed0 + c).integral_sq()
        total += float(isq.sum())
        count += len(isq)
    return total / count


def test_criterion_06_diffusion_consistency():
    cfg_a = _critical_mix_config(10.0)
    v = workload_variance_rate(cfg_a)
    assert abs(v - 0.026989795918367348) < 1e-15

    des_a = np.empty(4000)
    for s in range(4000):
        des_a[s] = exact_int_w2(run_path(cfg_a, "fcfs", seed=s,
                                         sampling_grid=2))
    rbm_a = _rbm_mean_int_sq(v, 250, 10.0, 25000, 4, seed0=500)

    cfg_b = _critical_mix_config(100.0)
    des_b = np.empty(2500)
    for s in range(2500):
        des_b[s] = exact_int_w2(run_path(cfg_b, "fcfs", seed=s,
                                         sampling_grid=2))
    rbm_b = _rbm_mean_int_sq(v, 2500, 100.0, 10000, 6, seed0=900)

    d_a = des_a.mean() / rbm_a - 1.0
    d_b = des_b.mean() / rbm_b - 1.0
    ok = abs(d_a) < 0.15 and abs(d_b) < 0.15 and abs(d_b) < abs(d_a)
    assert _verdict(ok, 6, (
        f"mean int W^2: 1e3 arrivals/path DES {des_a.mean():.4f} vs RBM "
        f"{rbm_a:.4f} ({d_a:+.2%}), 1e4 arrivals/path DES {des_b.mean():.2f} "
        f"vs RBM {rbm_b:.2f} ({d_b:+.2%}) (need both within 15% and the "
        f"larger scale closer)"))


# ---------------------------------------------------------------------------
# 7. queue composition and Little's law under heavy traffic


def test_criterion_07_composition_and_little():
    Q = np.array([[0.80, 0.15, 0.05],
                  [0.10, 0.75, 0.15],
                  [0.05, 0.20, 0.75]])
    p = np.array([0.5, 0.3, 0.2])
    mu = np.array([120.0, 60.0, 40.0])
    lam = 0.96 / float(p @ (1.0 / mu))
    cfg = SystemConfig(lam=lam, prevalences=p, service_rates=mu,
                       costs=(CostFn(2.0), CostFn(5.0), CostFn(9.0)),
                       confusion=ConfusionMatrix(Q), horizon=200.0)
    params = derive_predicted_params(cfg)

    comp_sum = np.zeros((3, 3))
    nbar_sum = np.zeros(3)
    sojourns = [[], [], []]
    seeds = (1, 2, 3, 4)
    for seed in seeds:
        path = run_path(cfg, "pcmu", seed=seed, sampling_grid=4001)
        comp_sum += path.curves.composition.mean(axis=0)
        nbar_sum += path.curves.queue_lengths.mean(axis=0)
        done = path.done
        sojourn = path.completion - path.arrival_times
        for l in range(3):
            sojourns[l].extend(sojourn[done & (path.predicted_class == l)].tolist())

    frac = (comp_sum / len(seeds)) / (comp_sum / len(seeds)).sum(axis=0)
    worst_comp = float(np.max(np.abs(frac - params.mix_weights)))
    little_err = np.empty(3)
    for l in range(3):
        predicted = params.lambda_tilde[l] * np.mean(sojourns[l])
        little_err[l] = abs(nbar_sum[l] / len(seeds) - predicted) / predicted
    ok = worst_comp <= 0.05 and np.all(little_err < 0.05)
    assert _verdict(ok, 7, (
        f"{len(seeds)} paths at rho=0.96, T=200: max |composition - "
        f"mix weight| {worst_comp:.4f} (need <= 0.05); Little's-law rel "
        f"errors {little_err[0]:.2%}/{little_err[1]:.2%}/{little_err[2]:.2%} "
        f"per predicted class (need < 5%)"))


# ---------------------------------------------------------------------------
# 8. classifier ranking by theory matches paired-seed simulation


def test_criterion_08_model_selection_fidelity():
    p = np.array([0.3, 0.7])
    mu = np.array([200.0, 100.0])
    lam = 1.0 / float(p @ (1.0 / mu))

    def build(confusion):
        return SystemConfig(lam=lam, prevalences=p, service_rates=mu,
                            costs=(CostFn(1.0), CostFn(10.0)),
                            confusion=confusion, horizon=10.0)

    accs = (0.99, 0.95, 0.85)
    qs = [ConfusionMatrix([[a, 1 - a], [1 - a, a]]) for a in accs]
    regrets = [relative_regret(q, build(q)) for q in qs]
    separated = all(b / a >= 1.05 for a, b in zip(regrets, regrets[1:]))

    n = 400
    cfg0 = build(ConfusionMatrix.identity(2))
    oracle = replicate(cfg0, "oracle", n, 0, rule=TRUNCATE_AT_HORIZON).terminal_costs
    pcmu = [replicate(build(q), "pcmu", n, 0, rule=TRUNCATE_AT_HORIZON).terminal_costs
            for q in qs]

    rng = np.random.default_rng(123)
    B = 2000
    hits = 0
    for _ in range(B):
        idx = rng.integers(0, n, n)
        om = oracle[idx].mean()
        ratios = [vals[idx].mean() / om for vals in pcmu]
        hits += ratios[0] < ratios[1] < ratios[2]
    match = hits / B
    ok = separated and match >= 0.95
    assert _verdict(ok, 8, (
        f"theory regrets {regrets[0]:.4f}/{regrets[1]:.4f}/{regrets[2]:.4f} "
        f"(adjacent separation >= 5%); bootstrap ranking match {match:.3f} "
        f"over {B} resamples of {n} paired seeds (need >= 0.95)"))


# ---------------------------------------------------------------------------
# 9. triage cost shapes across the three pricing regimes


GAUSS_CURVES = PassingCurves.from_gaussian_logit((-1.0, -3.0), (1.0, 1.0))


def _triage(c_trp, c_r):
    return TriageConfig(Lambda=50000.0, p=(0.2, 0.8), mu=(50.0, 200.0),
                        curves=GAUSS_CURVES, c_trp=c_trp, c_trn=-3.0,
                        c_fp=3.0, c_fn=3.0, c_tp=-3.0, c_tn=-3.0,
                        c_r=c_r, delay_costs=(15.0, 1.0))


def test_criterion_09_triage_shapes():
    zgrid = np.linspace(0.05, 0.48, 30)
    mc = McParams(n_paths=2000, n_steps=400, seed=0, horizon=1.0)
    totals = {}
    for name, cfg in (("i", _triage(200.0, 800.0)),
                      ("ii", _triage(20.0, 8000.0)),
                      ("iii", _triage(20.0, 800.0))):
        totals[name] = np.array([d.total
                                 for d in evaluate_grid(cfg, 0.5, zgrid, mc)[0]])
    inc = bool(np.all(np.diff(totals["i"]) > 0.0))
    dec = bool(np.all(np.diff(totals["ii"]) < 0.0))
    arg = int(np.argmin(totals["iii"]))
    interior = 0 < arg < len(zgrid) - 1

    # per-reviewer queue cost: diffusion estimate vs a direct simulation of
    # one reviewer's critically loaded queue near the setting-(iii) optimum
    cfg3 = _triage(20.0, 800.0)
    z = (0.376, 0.5)
    rbm = reviewer_queue_cost(z, cfg3, McParams(n_paths=4000, n_steps=2000,
                                                seed=17, horizon=10.0))
    sys_cfg = reviewer_system_config(reviewer_params(z, cfg3), cfg3, horizon=10.0)
    assert abs(sys_cfg.rho - 1.0) < 1e-9
    n = 1200
    des = replicate(sys_cfg, "pcmu", n, 0, rule=TRUNCATE_AT_HORIZON).terminal_costs
    rel = des.mean() / rbm - 1.0
    ok = inc and dec and interior and abs(rel) < 0.10
    assert _verdict(ok, 9, (
        f"total cost vs z_fl: setting (i) increasing {inc}, (ii) decreasing "
        f"{dec}, (iii) argmin at z={zgrid[arg]:.3f} idx {arg} (need "
        f"interior); reviewer queue cost DES {des.mean():.1f} vs RBM "
        f"{rbm:.1f} ({rel:+.2%}, need within 10%)"))


# ---------------------------------------------------------------------------
# 10. CLI determinism: rerun -> byte-identical CSVs


def test_criterion_10_cli_determinism(tmp_path):
    cfg = SystemConfig(lam=20.0, prevalences=(0.3, 0.7),
                       service_rates=(2.0, 1.0),
                       costs=(CostFn(1.0), CostFn(10.0)),
                       confusion=ConfusionMatrix(((0.9, 0.1), (0.2, 0.8))),
                       horizon=1.0)
    cfg_file = tmp_path / "system.json"
    save_config(cfg, cfg_file)
    model_a = tmp_path / "model_a.json"
    model_a.write_text('[[0.8, 0.2], [0.3, 0.7]]')
    model_b = tmp_path / "model_b.json"
    model_b.write_text('{"name": "sharp", "confusion": [[1,0],[0,1]]}')
    triage_file = tmp_path / "triage.json"
    triage_file.write_text(
        '{"Lambda": 50000, "p": [0.2, 0.8], "mu": [50, 200],'
        ' "curves": {"kind": "gaussian_logit", "loc": [-1, -3],'
        ' "scale": [1, 1]}, "c_trp": 20, "c_trn": -3, "c_fp": 3,'
        ' "c_fn": 3, "c_tp": -3, "c_tn": -3, "c_r": 800,'
        ' "delay_costs": [15, 1]}')
    val_csv = tmp_path / "validation.csv"
    rows = ["true_class,score,predicted_class,service_time"]
    rows += ["1,0.9,1,0.5"] * 6 + ["1,0.2,2,0.5"] * 2
    rows += ["2,0.1,2,1.0"] * 10 + ["2,0.8,1,1.0"] * 2
    val_csv.write_text("\n".join(rows) + "\n")

    commands = [
        ["simulate", "--config", str(cfg_file), "--paths", "3", "--seed", "2"],
        ["simulate", "--config", str(cfg_file), "--paths", "1"],
        ["lower-bound", "--config", str(cfg_file), "--paths", "60",
         "--steps", "120", "--seed", "4"],
        ["select-model", "--config", str(cfg_file),
         "--model", str(model_a), "--model", str(model_b)],
        ["triage", "--config", str(triage_file), "--zfl-grid", "0.1:0.4:4",
         "--paths", "150", "--steps", "100", "--seed", "3"],
        ["estimate", "--csv", str(val_csv)],
    ]
    runner = CliRunner()
    n_files = 0
    identical = True
    for i, args in enumerate(commands):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"run{i}{tag}"
            result = runner.invoke(cli_main, args + ["--out", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append({f.name: f.read_bytes()
                            for f in sorted(out.glob("*.csv"))})
        assert outputs[0], f"command {args[0]} produced no CSV output"
        n_files += len(outputs[0])
        identical = identical and outputs[0] == outputs[1]
    ok = identical
    assert _verdict(ok, 10, (
        f"{len(commands)} CLI invocations rerun with identical flags: "
        f"{n_files} CSV files byte-identical across runs (need exact match)"))
