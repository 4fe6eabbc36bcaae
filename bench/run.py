"""kcone benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload verify_catalog --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md for why each was chosen):

    verify_catalog  the full `kcone verify` over the six catalog forms,
                    in-process through kcone.cli.main(["verify"]);
    rank_sweep      library calls on seeded SYNm forms, m in 12..96;
    cli_calls       113 single `python -m kcone ...` subprocess calls.

Each workload is a closed loop with one client: every call waits for the
one before it.  Passes repeat until --seconds have elapsed (at least one).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced pass, whose spans sit
around the benchmark's own calls into kcone (nothing in src/ is touched).
Human-readable lines before it give the machine, every output check and
every metric with its unit.  A full record, spans included, is written to
bench/_out/.  `--workload all` runs each workload in its own process and
prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import synm

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
OUT = os.path.join(HERE, "_out")

WORKLOADS = ("verify_catalog", "rank_sweep", "cli_calls")
RANKS = (12, 24, 48, 96)
CLI_RANKS = (6, 12, 24, 48)
SETUP_REPS = 9
# a verify pass is pure Python, which the shared machine slows by up to a
# third for tens of seconds at a time; two passes per run halve that swing
MIN_PASSES = {"verify_catalog": 2}
STARTUP_REPS = 5
CALL_TIMEOUT_S = 30.0
SAMPLER_DRAWS = 8
# with omega = e1 + (1.4 / sqrt(m)) N(0, I) about half of the draws are rejected
SAMPLER_SCALE = 1.4
SECTIONAL_PLANES = 4
CLI_SUBCOMMANDS = (
    "info", "metric", "curvature", "connection", "geodesic",
    "probe", "algebra", "split", "pullback",
)
# the cli_calls mix: CALLS_PER_CELL calls for every (subcommand, form class)
# cell.  The seven subcommands that take any form run on every class, except
# the two cells in CLI_SKIPPED: one such call prints 180 MB of JSON in 21 s
# (curvature) or takes 7.6 s (algebra).  probe and pullback need a boundary
# class or an isometry, which are defined for catalog forms only.
CLI_ANY_FORM = ("info", "metric", "curvature", "connection", "geodesic", "algebra", "split")
CLI_CLASSES = ("catalog",) + tuple(f"SYN{m}" for m in CLI_RANKS)
CLI_SKIPPED = (("curvature", "SYN48"), ("algebra", "SYN48"))
CALLS_PER_CELL = 3
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("call_p50_ms", "ms"), ("call_p90_ms", "ms"))
FD_CHECKS = ("check_hessian_metric", "check_connection", "check_curvature",
             "check_primitive_field")

# Child process for setup_s: fresh interpreter -> import kcone -> parse and
# densify every form -> first admitted ConePoint on each.
SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import numpy as np
import kcone
from kcone.catalog import CATALOG, default_omega
t_import = time.perf_counter() - t0
parse_s = first_s = 0.0
for spec in json.loads(sys.argv[1]):
    if "catalog" in spec:
        form, omega = CATALOG[spec["catalog"]], default_omega(spec["catalog"])
    else:
        with open(spec["file"], encoding="utf-8") as fh:
            text = fh.read()
        t = time.perf_counter()
        form = kcone.parse_manifold(text)
        parse_s += time.perf_counter() - t
        omega = np.eye(form.rank_m)[0]
    t = time.perf_counter()
    kcone.ConePoint(form, omega)
    first_s += time.perf_counter() - t
print(json.dumps({"import_s": t_import, "parse_s": parse_s, "first_s": first_s}))
"""


# -- tracing and call records -----------------------------------------------


class Tracer:
    """Spans kept in memory; `enabled=False` makes span() a no-op."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, memory: bool = False):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        if memory:
            tracemalloc.start()
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            if memory:
                rec["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._stack.pop()


class Recorder:
    """Times every call of a pass and counts failed calls and checks."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.calls = []        # [name, seconds, failed]
        self.checks = []       # [name, passed, detail]
        self.latencies = []    # seconds per user-level call
        self._in_step = False

    @contextlib.contextmanager
    def step(self):
        """Count every call inside as one user-level call for latency."""
        self._in_step = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.latencies.append(time.perf_counter() - t0)
            self._in_step = False

    def call(self, name, fn, *args, memory=False):
        """Time fn(*args).  With memory=True a traced pass calls it once more
        under tracemalloc, in span `<name>.mem`, so the timed call is not
        slowed by allocation tracking."""
        with self.tracer.span(name):
            t0 = time.perf_counter()
            try:
                out, err = fn(*args), None
            except Exception as exc:  # a failed call is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        self.calls.append([name, dt, err is not None])
        if not self._in_step:
            self.latencies.append(dt)
        if err is not None:
            self.checks.append([f"{name} raised", False, err])
        elif memory and self.tracer.enabled:
            with self.tracer.span(f"{name}.mem", memory=True):
                fn(*args)
        return out

    def check(self, ok, name, detail=""):
        """Record an output check; a failed one fails the last call."""
        ok = bool(ok)
        self.checks.append([name, ok, detail])
        if not ok and self.calls:
            self.calls[-1][2] = True
        return ok


def close(a, b, rtol, scale=None):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = float(np.abs(b).max()) if scale is None else scale
    return a.shape == b.shape and float(np.abs(a - b).max(initial=0.0)) <= rtol * scale


def pct(values, q):
    """q-th percentile (q in 1..99), interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- machine record ---------------------------------------------------------


def _blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "blas" in ln.lower() and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def _cache_sizes():
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    entries = sorted(os.listdir(base)) if os.path.isdir(base) else []
    for entry in (e for e in entries if e.startswith("index")):
        def read(key):
            with open(os.path.join(base, entry, key), encoding="utf-8") as fh:
                return fh.read().strip()
        if read("type") != "Instruction":
            out[f"L{read('level')}"] = read("size")
    return out


def _git_commit():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(os.path.join(SRC, "kcone"))):
        dirnames.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def machine_info(seed):
    model = None
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for ln in fh:
            if ln.startswith("model name"):
                model = ln.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo", encoding="utf-8") as fh:
        mem_kb = int(next(ln for ln in fh if ln.startswith("MemTotal")).split()[1])
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": _cache_sizes(),
        "ram_gb": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- set-up -----------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(specs, reps):
    """Wall times from a fresh interpreter to admitted points on every form
    in `specs`, and the child's own breakdown of each."""
    walls, parts = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(specs)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise RuntimeError(f"setup child failed: {res.stderr.strip()[-500:]}")
        parts.append(json.loads(res.stdout))
    return walls, parts


def cli_startup_ms():
    walls = []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import kcone.cli"], cwd=ROOT, env=child_env(),
                       check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(walls)


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Context:
    """Inputs of one run, made from the seed before anything is timed."""

    def __init__(self, workload, seed):
        import kcone
        from kcone.catalog import CATALOG, default_omega

        self.workload = workload
        self.seed = seed
        self.catalog = CATALOG
        self.default_omega = default_omega
        self.ref = load_reference()
        self.dir = os.path.join(WORK, f"seed{seed}")
        ranks = {"rank_sweep": RANKS, "cli_calls": CLI_RANKS}.get(workload, ())
        self.syn = synm.write_synm(self.dir, ranks, seed)
        sym12 = (synm.write_synm(self.dir, [12], seed, perturbed=False)[12]
                 if workload == "rank_sweep" else None)
        self.setup_specs = (
            [{"file": p} for p in list(self.syn.values()) + [sym12]] if workload == "rank_sweep"
            else [{"catalog": n} for n in CATALOG]
            + [{"file": p} for p in self.syn.values()]
        )
        self.forms = {}
        if workload == "rank_sweep":
            # parse and densify outside the timed passes; setup_s covers it
            for m, path in self.syn.items():
                form = kcone.load_manifold(path)
                kcone.ConePoint(form, np.eye(m)[0])
                self.forms[m] = form
            self.cubic = {m: cubic_terms(path) for m, path in self.syn.items()}
            self.sym12 = kcone.load_manifold(sym12)
        else:
            for name in CATALOG:
                kcone.ConePoint(CATALOG[name], default_omega(name))
        if workload == "cli_calls":
            self.quintic2 = os.path.join(self.dir, "QUINTIC2.json")
            doubled = {"name": "QUINTIC2", "dim": 3, "h11": 1,
                       "intersection": [{"index": [1, 1, 1], "value": 10}]}
            with open(self.quintic2, "w", encoding="utf-8") as fh:
                json.dump(doubled, fh)
            self.cli_mix = build_cli_mix(self)

    def relabel(self, m):
        perm, signs = synm.relabelling(m, self.seed)
        return perm, signs, np.argsort(perm)


def cubic_terms(path):
    """(index triples, multiplicity * value) of a manifold file, so that
    kappa(w, w, w) = sum(coef * w[i] * w[j] * w[k]) without the library."""
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)["intersection"]
    idx = np.array([e["index"] for e in entries]) - 1
    distinct = np.array([len(set(e["index"])) for e in entries])
    coef = np.array([e["value"] for e in entries]) * np.choose(distinct - 1, [1.0, 3.0, 6.0])
    return idx, coef


# -- workload: verify_catalog -----------------------------------------------


def pass_verify(rec, ctx):
    from kcone.cli import main

    buf = io.StringIO()

    def run():
        with contextlib.redirect_stdout(buf):
            return main(["verify"])

    code = rec.call("cli.main.verify", run)
    if code is None:
        return
    rec.check(code == 0, "verify: exit code 0", f"exit {code}")
    try:
        report = json.loads(buf.getvalue())
    except json.JSONDecodeError as exc:
        rec.check(False, "verify: JSON report", str(exc))
        return
    rec.check(report["outputs"]["all_pass"] is True, "verify: all_pass")
    names = [c["name"] for c in report["checks"]]
    rec.check(names == ctx.ref["verify_check_names"], "verify: check names as at the seed",
              f"{len(names)} checks")
    bad = [c["name"] for c in report["checks"] if not c["max_dev"] <= c["tol"]]
    rec.check(not bad, "verify: every max_dev <= tol", ", ".join(bad))


def traced_verify(rec, ctx):
    from kcone.verify import run_verification

    names, total = [], 0
    for form in ctx.catalog:
        res = rec.call(f"verify.run_verification.{form}", run_verification, [form])
        if res is None:
            return total
        checks, all_pass = res
        total += len(checks)
        rec.check(all_pass, f"verify {form}: all_pass")
        names += [c["name"] for c in checks if not c["name"].startswith("pullback:")]
        pullback = [c["name"] for c in checks if c["name"].startswith("pullback:")]
    rec.check(names + pullback == ctx.ref["verify_check_names"],
              "verify per form: check names as at the seed")
    return total


# -- workload: rank_sweep ---------------------------------------------------


def pass_rank(rec, ctx):
    from kcone import ConePoint, algebra_at, derived_curvatures, fdcheck
    from kcone.errors import IndefiniteMetric, NonPositiveVolume

    rtol = ctx.ref["rtol"]
    counts = {"calls": 0, "rejects": 0, "s": 0.0}

    def admit(form, omega):
        """The ConePoint, or the name of the error that rejected omega."""
        counts["calls"] += 1
        t0 = time.perf_counter()
        try:
            return ConePoint(form, omega)
        except (NonPositiveVolume, IndefiniteMetric) as exc:
            counts["rejects"] += 1
            return type(exc).__name__
        finally:
            counts["s"] += time.perf_counter() - t0

    def sample(form, m):
        """Seeded draws around e1; returns how many draws are rejected for
        their volume while the volume computed from the file's coefficients
        is positive, or the other way round."""
        idx, coef = ctx.cubic[m]
        rng = np.random.default_rng([ctx.seed, m, 1])
        wrong = 0
        for _ in range(SAMPLER_DRAWS):
            omega = np.eye(m)[0] + (SAMPLER_SCALE / np.sqrt(m)) * rng.standard_normal(m)
            volume_rejected = admit(form, omega) == "NonPositiveVolume"
            wrong += volume_rejected == (float(coef @ np.prod(omega[idx], axis=1)) > 0.0)
        return wrong

    def one_rank(m):
        form, ref = ctx.forms[m], ctx.ref["synm"][str(m)]
        perm, _, inverse = ctx.relabel(m)
        P = rec.call(f"metric.ConePoint.m{m}", admit, form, np.eye(m)[0])
        if not rec.check(isinstance(P, ConePoint), f"SYN{m}: e1 admitted", f"{P}"):
            return
        wrong = rec.call(f"metric.ConePoint.sampler.m{m}", sample, form, m)
        rec.check(wrong == 0, f"SYN{m}: sampler rejects for volume exactly the draws of "
                  "non-positive volume",
                  f"{wrong} of {SAMPLER_DRAWS} disagree")

        dc = rec.call(f"curvature.derived_curvatures.m{m}", derived_curvatures, P, memory=True)
        if dc is not None:
            rec.check(close(dc.scalar, ref["scalar"], rtol), f"SYN{m}: scalar curvature",
                      f"{dc.scalar!r} vs {ref['scalar']!r}")
            ricci = np.asarray(dc.ricci)
            rec.check(close(np.diag(ricci), np.asarray(ref["ricci_diag"])[perm], rtol)
                      and close(np.linalg.norm(ricci), ref["ricci_fro"], rtol),
                      f"SYN{m}: Ricci diagonal and norm")
            rng = np.random.default_rng([ctx.seed, m, 2])
            planes = [ref["sectional"][i] for i in
                      rng.choice(len(ref["sectional"]), SECTIONAL_PLANES, replace=False)]
            eye = np.eye(m)

            def sectional():
                return [dc.sectional(eye[inverse[a]], eye[inverse[b]]) for a, b, _ in planes]

            ks = rec.call(f"curvature.sectional.m{m}", sectional)
            if ks is not None:
                rec.check(close(ks, [k for _, _, k in planes], rtol,
                                scale=max(abs(k) for _, _, k in planes)),
                          f"SYN{m}: seeded sectional planes")
            del dc, ricci  # free the m^4 tensor before the algebra calls

        alg = rec.call(f"algebra.algebra_at.m{m}", algebra_at, P) if m <= 48 else None
        if alg is not None:
            res = rec.call(f"algebra.kn_reconstruction_residual.m{m}",
                           alg.kn_reconstruction_residual, memory=True)
            if res is not None:
                rec.check(res <= 1e-10, f"SYN{m}: KN reconstruction residual <= 1e-10",
                          f"{res!r}")
            fit = rec.call(f"algebra.constant_curvature_test.m{m}",
                           alg.constant_curvature_test, memory=True)
            if fit is not None:
                rec.check(close(fit.lam, ref["lambda"], rtol), f"SYN{m}: constant-curvature lambda",
                          f"{fit.lam!r} vs {ref['lambda']!r}")
            if m <= 24:
                ders = rec.call(f"algebra.derivations.m{m}", alg.derivations, memory=True)
                if ders is not None:
                    rec.check(len(ders) == ref["derivation_dim"], f"SYN{m}: derivation dimension",
                              f"{len(ders)}")
        if m == 12:
            # SYM12 has a known nonzero derivation dimension, so a null space
            # that is dropped or cut short shows here
            sym = rec.call("metric.ConePoint.sym12", admit, ctx.sym12, np.eye(m)[0])
            if rec.check(isinstance(sym, ConePoint), "SYM12: e1 admitted", f"{sym}"):
                ders = rec.call("algebra.derivations.sym12",
                                lambda: algebra_at(sym).derivations())
                if ders is not None:
                    rec.check(len(ders) == ctx.ref["symm"]["12"]["derivation_dim"],
                              "SYM12: derivation dimension", f"{len(ders)}")
            for name in FD_CHECKS:
                rep = rec.call(f"fdcheck.{name}.m{m}", getattr(fdcheck, name), P)
                if rep is not None:
                    rec.check(rep.max_dev <= rep.tol, f"SYN{m}: FD {name} max_dev <= tol",
                              f"{rep.max_dev:.3g} <= {rep.tol:.3g}")
    for m in RANKS:
        with rec.step():
            one_rank(m)
    return counts


# -- workload: cli_calls ----------------------------------------------------


def _vec(x):
    return ",".join(repr(float(v)) for v in x)


def build_cli_mix(ctx):
    """The seeded call mix: CALLS_PER_CELL calls per (subcommand, form class)
    cell, plus eight expected-error calls.  The seed picks the catalog forms,
    points, vectors and the order.  Class arguments use --opt=value so
    negative coordinates are not read as options."""
    rng = np.random.default_rng([ctx.seed, 3])
    cat = list(ctx.catalog)
    files = {f"SYN{m}": path for m, path in ctx.syn.items()}
    calls = []

    def point(key):
        """(form token, class, scale): a seeded multiple of the default point."""
        t = round(float(rng.uniform(0.5, 2.0)), 3)
        if key in files:
            m = int(key[3:])
            return files[key], t * np.eye(m)[0], t
        return key, t * ctx.default_omega(key), t

    def add(sub, argv, expect=0, check_ref=None):
        calls.append({"sub": sub, "argv": [sub] + argv, "expect": expect,
                      "check_ref": check_ref})

    for sub in CLI_ANY_FORM:
        for cls in CLI_CLASSES:
            if (sub, cls) in CLI_SKIPPED:
                continue
            for _ in range(CALLS_PER_CELL):
                key = cat[rng.integers(len(cat))] if cls == "catalog" else cls
                tok, at, t = point(key)
                argv = [tok] if sub == "info" else [tok, f"--at={_vec(at)}"]
                check_ref = None
                if sub == "curvature":
                    argv += ["--ricci", "--scalar"]
                    check_ref = (int(key[3:]), t) if key in files else None
                elif sub == "connection":
                    z, u = rng.standard_normal((2, len(at)))
                    argv += [f"--z={_vec(z)}", f"--u={_vec(u)}"]
                elif sub == "geodesic":
                    v = (at * rng.uniform(-0.3, 0.3)
                         + 0.02 * np.linalg.norm(at) * rng.standard_normal(len(at)))
                    argv += [f"--v={_vec(v)}", "--T", "1", "--steps", "500"]
                elif sub == "algebra":
                    argv += ["--kn", "--constant-curvature"]
                    argv += ["--derivations"] if len(at) <= 12 else []
                add(sub, argv, check_ref=check_ref)
    probes = (("P1XP1", "1,0", "1,1"), ("BLP2", "1,0", "2,-1"))
    pullbacks = (("P1XP1", "P1XP1", "1,0;0,1", "1", 2), ("P1XP1", "P1XP1", "0,1;1,0", "1", 2),
                 ("QUINTIC", ctx.quintic2, "1", "2", 1), ("P3", "P3", "1", "1", 1))
    for _ in range(CALLS_PER_CELL):
        tok, alpha, omega = probes[rng.integers(len(probes))]
        add("probe", [tok, f"--alpha={alpha}", f"--omega={omega}",
                      "--halvings", str(int(rng.integers(6, 13)))])
        y, x, matrix, degree, m = pullbacks[rng.integers(len(pullbacks))]
        t = round(float(rng.uniform(0.5, 2.0)), 3)
        add("pullback", [y, x, "--matrix", matrix, "--degree", degree, f"--at={_vec([t] * m)}"])
    # expected errors: inadmissible points exit 2, malformed input exits 1
    for key in [f"SYN{m}" for m in rng.choice(CLI_RANKS, 2)]:
        tok, at, _ = point(key)
        add("metric", [tok, f"--at={_vec(-at)}"], expect=2)
    add("metric", ["LOR3", f"--at={_vec([0.0, rng.uniform(0.5, 2.0), 0.0])}"], expect=2)
    add("curvature", ["BLP2", f"--at={_vec([1.0, rng.uniform(1.5, 3.0)])}"], expect=2)
    add("metric", ["P1XP1", "--at=1,x"], expect=1)
    add("metric", [cat[rng.integers(len(cat))], "--at=1,2,3,4"], expect=1)
    add("pullback", ["P1XP1", "P1XP1", "--matrix", "1,0;0", "--degree", "1"], expect=1)
    add("split", ["P1XP1", "--at=1,1/0"], expect=1)
    return [calls[i] for i in rng.permutation(len(calls))]


def run_cli(argv):
    """One `python -m kcone` call; returns (exit code, stdout bytes)."""
    proc = subprocess.Popen([sys.executable, "-m", "kcone"] + argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def pass_cli(rec, ctx):
    rtol = ctx.ref["rtol"]
    sizes = []
    for call in ctx.cli_mix:
        sub = call["sub"]
        res = rec.call(f"cli.{sub}", run_cli, call["argv"])
        if res is None:
            continue
        code, out = res
        sizes.append((sub, len(out)))
        what = "cli " + " ".join(os.path.basename(a) if a.startswith(ctx.dir) else a
                                 for a in call["argv"])[:60]
        if not rec.check(code == call["expect"], f"{what}: exit {call['expect']}", f"exit {code}"):
            continue
        if call["expect"] == 1:
            continue
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            rec.check(False, f"{what}: JSON", str(exc))
            continue
        ok = report.get("command") == sub
        if call["expect"] == 2:
            ok = ok and report.get("error") in ("NonPositiveVolume", "IndefiniteMetric")
        else:
            ok = ok and all(c["pass"] for c in report["checks"])
        if ok and call["check_ref"]:
            # omega -> t omega is an isometry: scalar is unchanged, Ric scales by 1/t^2
            m, t = call["check_ref"]
            ref = ctx.ref["synm"][str(m)]
            perm = ctx.relabel(m)[0]
            ricci = np.asarray(report["outputs"]["ricci"]) * t * t
            ok = (close(report["outputs"]["scalar"], ref["scalar"], rtol)
                  and close(np.diag(ricci), np.asarray(ref["ricci_diag"])[perm], rtol))
        rec.check(ok, f"{what}: JSON output")
    return sizes


# -- running passes and reporting -------------------------------------------


PASSES = {"verify_catalog": pass_verify, "rank_sweep": pass_rank, "cli_calls": pass_cli}
TRACED = {"verify_catalog": traced_verify, "rank_sweep": pass_rank, "cli_calls": pass_cli}


def run_pass(fn, ctx, tracer):
    rec = Recorder(tracer)
    with tracer.span(f"pass.{ctx.workload}"):
        t0 = time.perf_counter()
        extra = fn(rec, ctx)
        wall = time.perf_counter() - t0
    return rec, wall, extra


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_calls" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(ctx, seconds):
    # half the set-ups run before the passes and half after, so that their
    # median spans the machine's speed over the whole run
    setup_walls, _ = measure_setup(ctx.setup_specs, SETUP_REPS - SETUP_REPS // 2)
    tracer = Tracer(f"{ctx.workload}:{ctx.seed}", enabled=False)
    recs, walls = [], []
    t0 = time.perf_counter()
    while len(walls) < MIN_PASSES.get(ctx.workload, 1) or time.perf_counter() - t0 < seconds:
        rec, wall, _ = run_pass(PASSES[ctx.workload], ctx, tracer)
        recs.append(rec)
        walls.append(wall)
    setup_walls += measure_setup(ctx.setup_specs, SETUP_REPS // 2)[0]
    lat = [x * 1000.0 for r in recs for x in r.latencies]
    values = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(ctx.workload),
        "call_p50_ms": statistics.median(lat),
        "call_p90_ms": pct(lat, 90),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    info = {"passes": len(walls), "pass_walls_s": walls, "calls": len(lat),
            "calls_beyond_p90": sum(x > values["call_p90_ms"] for x in lat)}
    return recs, metrics, info, []


def per_layer(ctx, seconds):
    setup_walls, parts = measure_setup(ctx.setup_specs, SETUP_REPS)
    setup_s = statistics.median(setup_walls)
    parts = {k: statistics.median(p[k] for p in parts) for k in parts[0]}
    startup = cli_startup_ms()
    _, untraced_wall, _ = run_pass(PASSES[ctx.workload], ctx,
                                   Tracer(f"{ctx.workload}:{ctx.seed}", enabled=False))
    tracer = Tracer(f"{ctx.workload}:{ctx.seed}:traced", enabled=True)
    rec, traced_wall, extra = run_pass(TRACED[ctx.workload], ctx, tracer)

    values = {name: 0.0 for name, _ in PER_LAYER}
    values["intersection.parse_manifold.s"] = parts["parse_s"]
    values["metric.ConePoint.first_s"] = parts["first_s"]
    values["cli.startup.ms"] = startup
    # the tracemalloc re-runs measure memory; they are not the cost of tracing
    mem_s = sum(sp["end"] - sp["start"] for sp in tracer.spans if sp["name"].endswith(".mem"))
    values["trace.overhead"] = (traced_wall - mem_s) / untraced_wall
    for sp in tracer.spans:
        key = sp["name"] + ".s"
        if key in values:
            values[key] += sp["end"] - sp["start"]
        if "peak_mb" in sp:
            key = sp["name"].removesuffix(".mem") + ".peak_mb"
            values[key] = max(values[key], sp["peak_mb"])
    if ctx.workload == "verify_catalog":
        values["verify.checks_run"] = extra
    elif ctx.workload == "rank_sweep":
        values["metric.ConePoint.calls"] = extra["calls"]
        values["metric.ConePoint.rejects"] = extra["rejects"]
        values["metric.ConePoint.s"] = extra["s"]
    else:
        for sub in CLI_SUBCOMMANDS:
            lat = [c[1] * 1000.0 for c in rec.calls if c[0] == f"cli.{sub}"]
            values[f"cli.{sub}.p50_ms"] = statistics.median(lat) if lat else 0.0
            values[f"cli.{sub}.out_bytes"] = max((b for s, b in extra if s == sub), default=0)
    units = dict(PER_LAYER)
    metrics = {k: (v, units[k]) for k, v in values.items()}
    info = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall, "mem_rerun_s": mem_s,
            "setup_s": setup_s, "setup_breakdown": parts, "spans": len(tracer.spans)}
    return [rec], metrics, info, tracer.spans


def _per_layer_names():
    out = [("intersection.parse_manifold.s", "s"), ("metric.ConePoint.first_s", "s"),
           ("metric.ConePoint.calls", "count"), ("metric.ConePoint.s", "s"),
           ("metric.ConePoint.rejects", "count")]
    for m in RANKS:
        out += [(f"curvature.derived_curvatures.m{m}.s", "s"),
                (f"curvature.derived_curvatures.m{m}.peak_mb", "MB"),
                (f"curvature.sectional.m{m}.s", "s")]
    for m in RANKS[:3]:
        out.append((f"algebra.algebra_at.m{m}.s", "s"))
        for fn in ("kn_reconstruction_residual", "constant_curvature_test") + (
                ("derivations",) if m <= 24 else ()):
            out += [(f"algebra.{fn}.m{m}.s", "s"), (f"algebra.{fn}.m{m}.peak_mb", "MB")]
    out += [(f"fdcheck.{fn}.m12.s", "s") for fn in FD_CHECKS]
    out += [(f"verify.run_verification.{f}.s", "s")
            for f in ("P1XP1", "P3", "QUINTIC", "BLP2", "LOR3", "CY3GEN")]
    out += [("verify.checks_run", "count"), ("cli.startup.ms", "ms")]
    for sub in CLI_SUBCOMMANDS:
        out += [(f"cli.{sub}.p50_ms", "ms"), (f"cli.{sub}.out_bytes", "bytes")]
    out.append(("trace.overhead", "ratio"))
    return out


PER_LAYER = _per_layer_names()


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "kcone", "__init__.py")):
        print(f"error: no kcone sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    machine = machine_info(args.seed)
    ctx = Context(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    recs, metrics, info, spans = measure(ctx, args.seconds)

    attempted = sum(len(r.calls) for r in recs)
    failed = sum(c[2] for r in recs for c in r.calls)
    checks = [c for r in recs for c in r.checks]
    correct = failed == 0 and all(c[1] for c in checks)
    print("machine " + json.dumps(machine))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} " + json.dumps(info))
    seen = set()
    for name, ok, detail in checks:
        if (name, ok) in seen and ok:
            continue
        seen.add((name, ok))
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    os.makedirs(OUT, exist_ok=True)
    record = {"machine": machine, "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "info": info, "checks": checks,
              "calls": [c for r in recs for c in r.calls], "spans": spans,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        res = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            print(f"{workload}: failed (exit {res.returncode})\n{res.stderr[-2000:]}")
            code = 1
            continue
        checks = [ln for ln in lines if ln.startswith("check ")]
        fails = [ln for ln in checks if ln.startswith("check FAIL")]
        result = json.loads(lines[-1])
        print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} checks={len(checks)} failing={len(fails)}")
        for ln in fails:
            print("   " + ln)
        for name, m in result["metrics"].items():
            print(f"   {name:48s} {m['value']:14.6g} {m['unit']}")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description="kcone benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
