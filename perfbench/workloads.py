"""The five workloads, each a stream of ops over fresh seeded inputs.

A workload turns an op index into inputs (``make``), runs the op through
frvkit's public API or its in-process CLI (``run``) and checks the output
(``check``, which returns ``None`` or the reason the output is wrong).  Op
``i`` of a run always gets the same inputs for the same seed, and no two
ops share an input object, so the lazily cached ``alphabet``, ``pmf`` and
``Triple`` kernels are paid inside every op, as a first-time user pays them.

The output checks recompute what they check from the raw inputs with the
benchmark's own code (``reference_*``), never through the layer under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

TOLERANCE = 1e-9


# -- references computed from raw weights --------------------------------------


def reference_mutual_information(masses, xs, ys) -> float:
    """I(X;Y) in bits from outcome masses (ints or Fractions, any total)."""
    total = sum(masses.values())
    joint, px, py = Counter(), Counter(), Counter()
    for outcome, mass in masses.items():
        joint[xs[outcome], ys[outcome]] += mass
        px[xs[outcome]] += mass
        py[ys[outcome]] += mass
    return math.fsum(
        float(mass / total) * math.log2(mass * total / (px[a] * py[b]))
        for (a, b), mass in joint.items()
        if mass
    )


def reference_mediator_error(table, masses, xs, ys, zs):
    """``None`` when ``table`` maps every (z, x) to a y with
    P(z|x) = P(z|y) P(y|x) exactly, else what is wrong.  Conditionals of a
    zero-mass label are zero, as in frvkit."""
    nx, ny, nxy, nyz, nxz = Counter(), Counter(), Counter(), Counter(), Counter()
    for outcome, mass in masses.items():
        x, y, z = xs[outcome], ys[outcome], zs[outcome]
        nx[x] += mass
        ny[y] += mass
        nxy[x, y] += mass
        nyz[y, z] += mass
        nxz[x, z] += mass
    cells = {(z, x) for z in set(zs.values()) for x in set(xs.values())}
    if set(table) != cells:
        return "mediator table does not cover Z x X"
    for (z, x), y in table.items():
        if y not in ny:
            return f"mediator value {y!r} is not a label of Y"
        if not nx[x]:
            continue
        # P(z|x) = P(z|y) P(y|x)  <=>  n(x,z) n(y) = n(y,z) n(x,y)  for n(x), n(y) > 0
        holds = nxz[x, z] * ny[y] == nyz[y, z] * nxy[x, y] if ny[y] else not nxz[x, z]
        if not holds:
            return f"mediator equation fails at z={z!r}, x={x!r}, y={y!r}"
    return None


# -- raw input generation ----------------------------------------------------------


def _masses(rng: random.Random, n: int):
    outcomes = [f"w{k}" for k in range(n)]
    masses = {outcome: rng.randint(1, 9) for outcome in outcomes}
    total = sum(masses.values())
    weights = {outcome: Fraction(mass, total) for outcome, mass in masses.items()}
    return outcomes, masses, weights


def _surjection(rng: random.Random, outcomes, size: int, prefix: str) -> dict:
    """Each of ``size`` labels on at least one outcome, the rest uniform."""
    labels = [f"{prefix}{k}" for k in range(size)]
    drawn = labels + [rng.choice(labels) for _ in range(len(outcomes) - size)]
    rng.shuffle(drawn)
    return dict(zip(outcomes, drawn))


def _decode(label):
    return tuple(_decode(part) for part in label) if isinstance(label, list) else label


def _keyed(obj) -> list:
    """Entries of a document map given as an object or a [key, value] list."""
    if isinstance(obj, dict):
        return list(obj.items())
    return [(_decode(key), value) for key, value in obj]


def document_masses(doc) -> dict:
    return {outcome: Fraction(text) for outcome, text in _keyed(doc["space"]["weights"])}


def document_variable(doc, name: str) -> dict:
    return {outcome: _decode(label) for outcome, label in _keyed(doc["variables"][name])}


class Workload:
    """Base: seeded per-op randomness and the warm-up ops of set-up.

    Subclasses set ``name``, and ``cycle``, the number of ops after which
    their sequence of op kinds or shapes repeats.
    """

    warmup_ops = 2

    def __init__(self, fk, seed: int, workdir: Path):
        self.fk = fk
        self.seed = seed
        self.workdir = workdir

    def make(self, index: int):
        return self.build(random.Random(f"{self.name}/{self.seed}/{index}"), index)

    def warm_up(self) -> None:
        """Run ops ``0 .. warmup_ops - 1`` once each, on inputs that do not
        depend on the seed, so set-up does the same work on every run."""
        for j in range(self.warmup_ops):
            inputs = self.build(random.Random(f"{self.name}/warmup/{j}"), j)
            # Warm-up results are not measured; the timed ops report failures.
            with contextlib.suppress(Exception):
                self.check(inputs, self.run(inputs))


# -- measures_wide -------------------------------------------------------------------

# (|X|, |Y|, outcomes): sparse joint tables where outcomes < |X||Y|, dense
# ones where outcomes > |X||Y|.  Every cycle runs each shape once, so every
# run sees the same mix.  The shapes are listed in cost order, each about a
# tenth dearer than the one before (about 10 to 280 ms on a 2-vCPU Xeon VM):
# with no gaps in the latency distribution, machine speed that varies during
# a run moves p50 and p90 smoothly instead of making them jump between shapes.
MEASURE_SHAPES = (
    (16, 16, 64),
    (16, 16, 32),
    (16, 16, 128),
    (32, 16, 64),
    (16, 32, 64),
    (16, 16, 384),
    (32, 32, 128),
    (64, 16, 128),
    (32, 32, 256),
    (16, 64, 128),
    (16, 32, 768),
    (32, 32, 512),
    (64, 16, 256),
    (64, 16, 512),
    (16, 64, 512),
    (64, 32, 256),
    (32, 64, 256),
    (16, 128, 256),
    (32, 32, 1536),
    (32, 64, 512),
    (16, 128, 512),
    (128, 16, 256),
    (32, 64, 1024),
    (128, 16, 1024),
    (64, 32, 1024),
    (16, 256, 512),
    (16, 128, 3072),
    (128, 16, 3072),
    (64, 32, 3072),
    (256, 16, 512),
    (32, 64, 3072),
    (32, 128, 1024),
)


def _slot(table, index: int):
    """Entry ``index`` of a cycle through ``table``; the stride, prime to the
    length, spreads cheap and dear entries evenly over each cycle."""
    return table[index * 13 % len(table)]


class MeasuresWide(Workload):
    name = "measures_wide"
    cycle = len(MEASURE_SHAPES)

    def build(self, rng, index):
        size_x, size_y, n = _slot(MEASURE_SHAPES, index)
        outcomes, masses, weights = _masses(rng, n)
        xs = _surjection(rng, outcomes, size_x, "x")
        ys = _surjection(rng, outcomes, size_y, "y")
        return masses, weights, xs, ys

    def run(self, inputs):
        fk = self.fk
        _, weights, xs, ys = inputs
        sp = fk.space(weights)
        x, y = fk.variable(sp, xs), fk.variable(sp, ys)
        values = (
            fk.entropy(x.pmf),
            fk.entropy(y.pmf),
            fk.joint_entropy(x, y),
            fk.conditional_entropy(x, y),
            fk.conditional_entropy(y, x),
            fk.mutual_information(x, y),
        )
        return x, y, values

    def check(self, inputs, output):
        masses, _, xs, ys = inputs
        x, y, (_, _, h_xy, _, _, i_xy) = output
        if self.fk.mutual_information(y, x) != i_xy:
            return "I(Y,X) differs from I(X,Y)"
        if self.fk.joint_entropy(y, x) != h_xy:
            return "H(Y,X) differs from H(X,Y)"
        expected = reference_mutual_information(masses, xs, ys)
        if not abs(i_xy - expected) <= TOLERANCE:
            return f"I(X,Y) = {i_xy!r}, recomputed {expected!r}"
        return None


# -- mediator --------------------------------------------------------------------------

# Family-a triangles (X, X*Z, Z): (|X|, |Z|, |Y|); family-d chains
# X -> phi(X) -> psi(phi(X)): (|X|, |Y|, |Z|); random triples: (|X|, |Y|, |Z|).
# In cost order, each slot about a tenth dearer than the one before (about 10
# to 470 ms), for the same reason as MEASURE_SHAPES.
MEDIATOR_SLOTS = (
    ("r", 8, 8, 8),
    ("a", 6, 6, 18),
    ("d", 32, 8, 4),
    ("a", 8, 8, 24),
    ("r", 10, 10, 10),
    ("a", 6, 6, 24),
    ("r", 12, 12, 12),
    ("a", 8, 8, 32),
    ("d", 64, 8, 4),
    ("r", 14, 14, 14),
    ("r", 16, 16, 16),
    ("a", 8, 8, 48),
    ("a", 10, 10, 30),
    ("d", 96, 8, 4),
    ("r", 18, 18, 18),
    ("r", 20, 20, 20),
    ("a", 10, 10, 50),
    ("a", 14, 14, 42),
    ("d", 64, 32, 4),
    ("d", 128, 16, 4),
    ("a", 10, 10, 70),
    ("a", 14, 14, 84),
    ("d", 96, 32, 4),
    ("a", 14, 14, 98),
    ("d", 128, 32, 4),
    ("a", 16, 16, 80),
    ("a", 14, 14, 112),
    ("a", 16, 16, 112),
    ("d", 192, 32, 4),
    ("a", 14, 14, 126),
    ("a", 16, 16, 128),
    ("a", 16, 16, 160),
)


class Mediator(Workload):
    name = "mediator"
    cycle = len(MEDIATOR_SLOTS)

    def build(self, rng, index):
        kind, a, b, c = _slot(MEDIATOR_SLOTS, index)
        if kind == "a":
            size_x, size_z, size_y = a, b, c
            hit = {(f"x{k}", f"z{rng.randrange(size_z)}") for k in range(size_x)}
            hit |= {(f"x{rng.randrange(size_x)}", f"z{k}") for k in range(size_z)}
            while len(hit) < size_y:
                hit.add((f"x{rng.randrange(size_x)}", f"z{rng.randrange(size_z)}"))
            hit = sorted(hit)
            outcomes, masses, weights = _masses(rng, size_y + size_y // 2)
            cells = hit + [rng.choice(hit) for _ in range(len(outcomes) - size_y)]
            rng.shuffle(cells)
            ys = dict(zip(outcomes, cells))
            xs = {outcome: cell[0] for outcome, cell in ys.items()}
            zs = {outcome: cell[1] for outcome, cell in ys.items()}
        elif kind == "d":
            outcomes, masses, weights = _masses(rng, 2 * a)
            xs = _surjection(rng, outcomes, a, "x")
            phi = _surjection(rng, sorted(set(xs.values())), b, "p")
            psi = _surjection(rng, sorted(set(phi.values())), c, "q")
            ys = {outcome: phi[label] for outcome, label in xs.items()}
            zs = {outcome: psi[label] for outcome, label in ys.items()}
        else:
            outcomes, masses, weights = _masses(rng, 8 * max(a, b, c))
            xs = _surjection(rng, outcomes, a, "x")
            ys = _surjection(rng, outcomes, b, "y")
            zs = _surjection(rng, outcomes, c, "z")
        return kind, masses, weights, xs, ys, zs

    def run(self, inputs):
        fk = self.fk
        kind, _, weights, xs, ys, zs = inputs
        sp = fk.space(weights)
        x, z = fk.variable(sp, xs), fk.variable(sp, zs)
        y = fk.canonical_product(x, z) if kind == "a" else fk.variable(sp, ys)
        triple = fk.Triple(x, y, z)
        mediator = fk.find_mediator(triple)
        verified = fk.verify_mediator(triple, mediator) if mediator is not None else None
        residuals = (fk.weak_functoriality_residual(triple), fk.chain_rule_residual(triple))
        return mediator, verified, residuals

    def check(self, inputs, output):
        kind, masses, _, xs, ys, zs = inputs
        mediator, verified, _ = output
        if mediator is None:
            return "no mediator on a Markov triangle" if kind != "r" else None
        if verified is not True:
            return "verify_mediator rejects the mediator find_mediator returned"
        return reference_mediator_error(mediator.table, masses, xs, ys, zs)


# -- in-process CLI ----------------------------------------------------------------------


class ExitStatus(Exception):
    """The CLI exited with a code outside {0, 1}."""


class CliWorkload(Workload):
    """Ops are in-process ``frvkit`` command lines writing to ``workdir``."""

    def run(self, inputs):
        argv = inputs[1]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = self.fk.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code not in (0, 1):
            raise ExitStatus(f"exit {code}: {stderr.getvalue().strip()}")
        return code

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def fresh_path(self, name: str) -> str:
        path = self.workdir / name
        path.unlink(missing_ok=True)
        return str(path)


GENERATED = 4  # documents per ``generate`` call: one per triangle family


class CliDocuments(CliWorkload):
    """A cycle of four calls: generate pairs, compute one of them, generate
    triangles, run the mediator search on one of them."""

    name = "cli_documents"
    warmup_ops = 4
    cycle = 4

    def build(self, rng, index):
        step = index % 4
        if step in (0, 2):
            kind = "pair" if step == 0 else "triangle"
            argv = ["generate", "--kind", kind, "--count", str(GENERATED),
                    "--seed", str(rng.randrange(2**31)), "--out", self.fresh_path(f"{kind}s.json")]
            return step, argv, None
        if step == 1:
            with open(self.path("pairs.json"), encoding="utf-8") as handle:
                doc = json.load(handle)["documents"][rng.randrange(GENERATED)]
            argv = ["compute", self.path("pair.json"), "--format", "json",
                    "--out", self.fresh_path("compute.json")]
            source = "pair.json"
        else:
            with open(self.path("triangles.json"), encoding="utf-8") as handle:
                doc = json.load(handle)["documents"][(index // 4) % GENERATED]
            argv = ["triangle", self.path("triangle.json"), "--emit-mediator", "--format", "json",
                    "--out", self.fresh_path("triangle-out.json")]
            source = "triangle.json"
        with open(self.path(source), "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return step, argv, doc

    def check(self, inputs, output):
        step, argv, doc = inputs
        if output != 0:
            return f"exit {output}"
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as handle:
            result = json.load(handle)
        if step in (0, 2):
            return None if len(result["documents"]) == GENERATED else "wrong document count"
        masses = document_masses(doc)
        xs, ys = document_variable(doc, "X"), document_variable(doc, "Y")
        if step == 1:
            expected = reference_mutual_information(masses, xs, ys)
            got = result["mutual_information"]
            return None if abs(got - expected) <= TOLERANCE else f"I = {got!r}, recomputed {expected!r}"
        if result["is_markov_triangle"] is not True:
            return "generated triangle reported as not Markov"
        table = {(_decode(z), _decode(x)): _decode(y) for z, x, y in result["mediator"]}
        return reference_mediator_error(table, masses, xs, ys, document_variable(doc, "Z"))


# -- audit ------------------------------------------------------------------------------

# The builtin functionals in registry order, with the axioms each is known to
# break and, for those that break none, the scale its probe must fit.
FUNCTIONALS = (
    ("mutual_information", (), 1.0),
    ("scaled_mutual_information", (), 2.5),
    ("joint_entropy", (6,), None),
    ("conditional_entropy", (3,), None),
    ("reverse_conditional_entropy", (3, 6), None),
    ("squared_mutual_information", (2, 5), None),
    ("space_weight_entropy", (4, 6), None),
)


class Audit(CliWorkload):
    """``frvkit audit --functional NAME --seed S`` at the default 64
    instances; NAME cycles over the builtins and S is new for every op."""

    name = "audit"
    cycle = len(FUNCTIONALS)

    def build(self, rng, index):
        name, _, _ = FUNCTIONALS[index % len(FUNCTIONALS)]
        argv = ["audit", "--functional", name, "--seed", str(rng.randrange(2**31)),
                "--out", self.fresh_path("audit.json")]
        return index % len(FUNCTIONALS), argv

    def check(self, inputs, code):
        slot, argv = inputs
        name, expected_failures, scale = FUNCTIONALS[slot]
        with open(argv[-1], encoding="utf-8") as handle:
            report = json.load(handle)
        if tuple(report["failed_axioms"]) != expected_failures:
            return f"{name}: failed axioms {report['failed_axioms']}, expected {list(expected_failures)}"
        if scale is not None:
            probe = report["probe"]
            if probe is None or not abs(probe["fitted_c"] - scale) <= TOLERANCE:
                return f"{name}: probe {probe}, expected fitted_c {scale}"
        if code != (0 if report["passed"] else 1):
            return f"{name}: exit {code} disagrees with passed={report['passed']}"
        return None


# -- axiom_checks ------------------------------------------------------------------------

# Instances per kind in one op's corpus.  With the seven functionals this
# makes a cycle of 7 x 5 ops, and 35 is prime to the stride of ``_slot``.
AXIOM_CORPUS_SIZES = (6, 8, 10, 12, 16)
AXIOM_SLOTS = tuple(
    (functional, size) for size in AXIOM_CORPUS_SIZES for functional in range(len(FUNCTIONALS))
)


def _raw_pair(rng: random.Random, max_alphabet: int = 5, max_outcomes: int = 8):
    """Outcome masses and two labelings, each with at least two labels."""
    size_x, size_y = rng.randint(2, max_alphabet), rng.randint(2, max_alphabet)
    outcomes, masses, _ = _masses(rng, rng.randint(max(size_x, size_y), max_outcomes))
    return masses, _surjection(rng, outcomes, size_x, "x"), _surjection(rng, outcomes, size_y, "y")


def _raw_sequence(rng: random.Random):
    """A joint limit over r x c cells, and two distinct cells between which
    a 1/n perturbation moves half the donor's mass."""
    cells = [(f"r{i}", f"c{j}") for i in range(rng.randint(2, 3)) for j in range(rng.randint(2, 3))]
    masses = {cell: rng.randint(0, 6) for cell in cells}
    donor, receiver = rng.sample(cells, 2)
    masses[donor] += 1
    return masses, donor, receiver


class AxiomChecks(Workload):
    """The six axiom checks and the characterization probe, through
    ``audit(functional, corpus=...)``, on a corpus the benchmark builds.

    Like ``audit`` without ``build_audit_corpus``: every op builds a fresh
    corpus of pairs, vacuity pairs, mixtures, pullbacks, Markov triangles
    (family a, Y = X*Z, and family d, a chain of functions of X) and
    convergent pair sequences from seeded raw weights, then audits one
    builtin functional on it.
    """

    name = "axiom_checks"
    cycle = len(AXIOM_SLOTS)

    def build(self, rng, index):
        slot, size = _slot(AXIOM_SLOTS, index)
        pairs = [_raw_pair(rng) for _ in range(size)]
        vacuity = [_raw_pair(rng)[:2] for _ in range(size)]
        mixtures = []
        for _ in range(size):
            tags = [f"m{k}" for k in range(rng.randint(1, 4))]
            outcomes, masses, _ = _masses(rng, rng.randint(4, 6))
            family = {
                tag: (_surjection(rng, outcomes, rng.randint(1, 4), f"{tag}y"),
                      _surjection(rng, outcomes, rng.randint(1, 4), f"{tag}z"))
                for tag in tags
            }
            mixtures.append(({tag: rng.randint(1, 6) for tag in tags}, masses, family))
        pullbacks = []
        for _ in range(size):
            masses, xs, ys = _raw_pair(rng, max_outcomes=6)
            if rng.random() < 0.5:
                extra = ("product", {f"v{k}": rng.randint(1, 6) for k in range(rng.randint(2, 4))})
            else:
                extra = ("split", {outcome: [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
                                   for outcome in masses})
            pullbacks.append((masses, xs, ys, extra))
        triangles = []
        for k in range(size):
            if k % 2 == 0:
                size_x, size_z = rng.randint(2, 4), rng.randint(2, 4)
                outcomes, masses, _ = _masses(rng, rng.randint(size_x * size_z // 2 + 2, 12))
                ys = None
                xs = _surjection(rng, outcomes, size_x, "x")
                zs = _surjection(rng, outcomes, size_z, "z")
            else:
                outcomes, masses, _ = _masses(rng, rng.randint(6, 10))
                xs = _surjection(rng, outcomes, 5, "x")
                phi = _surjection(rng, sorted(set(xs.values())), 3, "p")
                psi = _surjection(rng, sorted(set(phi.values())), 2, "q")
                ys = {outcome: phi[label] for outcome, label in xs.items()}
                zs = {outcome: psi[label] for outcome, label in ys.items()}
            triangles.append((masses, xs, ys, zs))
        sequences = [_raw_sequence(rng) for _ in range(max(2, size // 4))]
        return slot, size, (pairs, vacuity, mixtures, pullbacks, triangles, sequences)

    def run(self, inputs):
        fk = self.fk
        ax = fk.axioms
        slot, size, (pairs, vacuity, mixtures, pullbacks, triangles, sequences) = inputs

        def space_of(masses):
            total = sum(masses.values())
            return fk.space({outcome: Fraction(mass, total) for outcome, mass in masses.items()})

        def pair(masses, xs, ys):
            sp = space_of(masses)
            return fk.variable(sp, xs), fk.variable(sp, ys)

        def constant_against(masses, xs):
            x = fk.variable(space_of(masses), xs)
            return ax.VacuityInstance(x, fk.constant_variable(x.space, "c"))

        def pullback(masses, xs, ys, extra):
            x, y = pair(masses, xs, ys)
            kind, raw = extra
            if kind == "product":
                proj = fk.projection_map(x.space, space_of(raw), "left")
            else:
                weights, mapping = {}, {}
                for outcome, shares in raw.items():
                    for k, share in enumerate(shares):
                        weights[outcome, f"s{k}"] = x.space.weights[outcome] * Fraction(share, sum(shares))
                        mapping[outcome, f"s{k}"] = outcome
                proj = fk.MeasurePreservingMap(fk.space(weights), x.space, mapping)
            return ax.PullbackInstance(x, y, proj)

        def mixture(tag_masses, masses, family):
            sp = space_of(masses)
            total = sum(tag_masses.values())
            return ax.MixtureInstance(
                {tag: Fraction(mass, total) for tag, mass in tag_masses.items()},
                {tag: (fk.variable(sp, a), fk.variable(sp, b)) for tag, (a, b) in family.items()},
            )

        def triangle(masses, xs, ys, zs):
            sp = space_of(masses)
            x, z = fk.variable(sp, xs), fk.variable(sp, zs)
            y = fk.canonical_product(x, z) if ys is None else fk.variable(sp, ys)
            return fk.Triple(x, y, z)

        def sequence(masses, donor, receiver):
            total = sum(masses.values())
            limit = {cell: Fraction(mass, total) for cell, mass in masses.items()}
            step = limit[donor] / 2

            def term(n):
                drifted = dict(limit)
                drifted[donor] -= step / n
                drifted[receiver] += step / n
                return drifted

            return ax.SequenceInstance(fk.PmfSequence(tuple(limit), term), limit)

        corpus = fk.AuditCorpus(
            seed=self.seed,
            instances=size,
            pairs=tuple(ax.PairInstance(*pair(*raw)) for raw in pairs),
            vacuity=tuple(constant_against(*raw) for raw in vacuity),
            mixtures=tuple(mixture(*raw) for raw in mixtures),
            pullbacks=tuple(pullback(*raw) for raw in pullbacks),
            triangles=tuple(triangle(*raw) for raw in triangles),
            sequences=tuple(sequence(*raw) for raw in sequences),
        )
        functional = fk.get_functional(FUNCTIONALS[slot][0])
        return fk.audit(functional, corpus=corpus).as_document()

    def check(self, inputs, report):
        slot, size, _ = inputs
        name, expected_failures, scale = FUNCTIONALS[slot]
        if tuple(report["failed_axioms"]) != expected_failures:
            return f"{name}: failed axioms {report['failed_axioms']}, expected {list(expected_failures)}"
        if [axiom["instances_tested"] for axiom in report["axioms"][1:]] != [size] * 5:
            return f"{name}: checks did not test {size} instances each"
        probe = report["probe"]
        if scale is None:
            return None if probe is None else f"{name}: probe ran although axioms failed"
        if probe is None or not probe["passed"] or not abs(probe["fitted_c"] - scale) <= TOLERANCE:
            return f"{name}: probe {probe}, expected a passing fit of {scale}"
        return None


WORKLOADS = {w.name: w for w in (Audit, MeasuresWide, Mediator, CliDocuments, AxiomChecks)}
