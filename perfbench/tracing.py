"""Span tracing of cbs2atom from outside the package.

`Tracer.install` wraps every public function and public method defined in
the ``cbs2atom`` modules and rebinds the wrapper under every module
attribute that refers to the original, so a name imported with
``from cbs2atom.linalg import green`` (or under an alias) is traced at its
call site too.  `Tracer.uninstall` puts every original back.

Each call records one span: function id, start, end, parent span, error
flag and an optional count (for example the pole-sum terms fed to
``integrate_pole_sum``).  Spans stay in memory and are written out by
`Tracer.save`; `layer_metrics` turns a saved file into per-layer numbers,
with self time = span duration minus the duration of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

PACKAGE = "cbs2atom"

#: Extra count recorded per span, taken from (args, kwargs, result).
COUNTERS = {
    "residues.integrate_pole_sum": lambda args, kwargs, result: len(args[0].terms),
    "spectra.inelastic_ladder": lambda args, kwargs, result: len(result.nu),
    "spectra.inelastic_crossed": lambda args, kwargs, result: len(result.nu),
    "pumpprobe.channel_densities": lambda args, kwargs, result: len(result["nu"]),
    "disorder.monte_carlo_spectra": lambda args, kwargs, result: result.ladder.samples,
}

SPAN_DTYPE = np.dtype([("fid", "<i4"), ("start", "<f8"), ("end", "<f8"),
                       ("parent", "<i8"), ("run", "<i4"), ("error", "<i1"),
                       ("count", "<i8")])


def package_modules() -> list:
    """The package and all its submodules, imported."""
    root = importlib.import_module(PACKAGE)
    names = sorted(info.name for info in pkgutil.iter_modules(root.__path__))
    return [root] + [importlib.import_module(f"{PACKAGE}.{name}") for name in names]


def _public_callables(module):
    """(qualified id, owner, attribute, original) for every public function
    and method that ``module`` defines."""
    short = module.__name__.rpartition(".")[2]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", module, name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                    yield f"{short}.{name}.{attr}", obj, attr, member


class Tracer:
    """Call spans of one traced run, recorded by installed wrappers."""

    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.names: list = []
        self._patches: list = []
        self._fid: list = []
        self._start: list = []
        self._end: list = []
        self._parent: list = []
        self._error: list = []
        self._count: list = []
        self._stack = [-1]

    def _wrap(self, fid: int, fn, counter):
        clock, stack = time.perf_counter, self._stack
        fids, starts, ends = self._fid, self._start, self._end
        parents, errors, counts = self._parent, self._error, self._count

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            errors.append(0)
            counts.append(0)
            stack.append(index)
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counts[index] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        wrappers = {}
        for module in modules:
            for name, owner, attr, member in _public_callables(module):
                fid = len(self.names)
                self.names.append(name)
                if isinstance(member, (classmethod, staticmethod)):
                    wrapped = type(member)(self._wrap(fid, member.__func__, COUNTERS.get(name)))
                    self._patch(owner, attr, wrapped)
                elif owner is module:
                    wrappers[id(member)] = (member, self._wrap(fid, member, COUNTERS.get(name)))
                else:
                    self._patch(owner, attr, self._wrap(fid, member, COUNTERS.get(name)))
        # rebind module-level functions wherever they were imported
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> np.ndarray:
        out = np.empty(len(self._fid), dtype=SPAN_DTYPE)
        out["fid"] = self._fid
        out["start"] = self._start
        out["end"] = self._end
        out["parent"] = self._parent
        out["run"] = self.run_id
        out["error"] = self._error
        out["count"] = self._count
        return out

    def save(self, path: str) -> None:
        """Write the spans and the function-id table (``.npz``)."""
        np.savez(path, spans=self.spans(), names=np.array(self.names))


def snapshot(modules) -> dict:
    """Identity of every attribute of the modules and of their classes,
    for checking that an uninstalled tracer left nothing behind."""
    state = {}
    for module in modules:
        for attr, value in vars(module).items():
            state[(module.__name__, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for member, inner in vars(value).items():
                    state[(module.__name__, attr, member)] = id(inner)
    return state


# ----------------------------------------------------------------------------
# per-layer numbers from saved spans
# ----------------------------------------------------------------------------

#: Single-atom closed forms grouped as one entry.
CLOSED_FORMS = ("atom.mollow_p0", "atom.p_plus", "atom.p_minus", "atom.p2",
                "atom.probe_vectors")
LIBRARY_LAYERS = ("linalg", "atom", "residues", "spectra", "pumpprobe",
                  "twoatom", "disorder")


class SpanTable:
    """Aggregates over the spans of one traced run."""

    def __init__(self, spans: np.ndarray, names):
        self.spans = spans
        self.names = [str(n) for n in names]
        duration = spans["end"] - spans["start"]
        children = np.zeros(len(spans))
        nested = spans["parent"] >= 0
        np.add.at(children, spans["parent"][nested], duration[nested])
        self.duration = duration
        self.self_time = duration - children
        self.fid_of = {name: i for i, name in enumerate(self.names)}
        self.layer = np.array([n.partition(".")[0] for n in self.names] or [""])

    def _mask(self, name: str) -> np.ndarray:
        fid = self.fid_of.get(name, -1)
        return self.spans["fid"] == fid

    def calls(self, name: str) -> int:
        return int(np.count_nonzero(self._mask(name)))

    def self_s(self, *names: str) -> float:
        return float(sum(self.self_time[self._mask(n)].sum() for n in names))

    def errors(self, name: str) -> int:
        return int(self.spans["error"][self._mask(name)].sum())

    def count(self, name: str) -> int:
        return int(self.spans["count"][self._mask(name)].sum())

    def inclusive_s(self, name: str, minus_child: str | None = None) -> float:
        """Duration of ``name``'s spans, less that of their direct
        ``minus_child`` children."""
        mask = self._mask(name)
        total = float(self.duration[mask].sum())
        if minus_child is not None:
            parents = np.flatnonzero(mask)
            child = self._mask(minus_child) & np.isin(self.spans["parent"], parents)
            total -= float(self.duration[child].sum())
        return total

    def layer_mask(self, layer: str) -> np.ndarray:
        fids = np.flatnonzero(self.layer == layer)
        return np.isin(self.spans["fid"], fids)


def _per_point_ms(table: SpanTable, name: str, minus_child: str | None = None) -> float:
    points = table.count(name)
    return 1e3 * table.inclusive_s(name, minus_child) / points if points else 0.0


def layer_metrics(path: str) -> dict:
    """Per-layer numbers of one saved traced run (plain floats)."""
    with np.load(path) as data:
        table = SpanTable(data["spans"], data["names"])
    t = table
    metrics = {
        "residues.expand_chain.calls": t.calls("residues.expand_chain"),
        "residues.expand_chain.self_s": t.self_s("residues.expand_chain"),
        "residues.PoleSum.multiply.calls": t.calls("residues.PoleSum.multiply"),
        "residues.PoleSum.multiply.self_s": t.self_s("residues.PoleSum.multiply"),
        "residues.integrate_pole_sum.calls": t.calls("residues.integrate_pole_sum"),
        "residues.integrate_pole_sum.self_s": t.self_s("residues.integrate_pole_sum"),
        "residues.integrate_pole_sum.terms": t.count("residues.integrate_pole_sum"),
        "spectra.inelastic_ladder.self_s": t.self_s("spectra.inelastic_ladder"),
        "spectra.inelastic_crossed.self_s": t.self_s("spectra.inelastic_crossed"),
        "spectra.ladder.point_ms": _per_point_ms(
            t, "spectra.inelastic_ladder", "spectra.elastic_ladder"),
        "spectra.crossed.point_ms": _per_point_ms(
            t, "spectra.inelastic_crossed", "spectra.elastic_crossed"),
        "spectra.elastic_ladder.self_s": t.self_s("spectra.elastic_ladder"),
        "spectra.elastic_crossed.self_s": t.self_s("spectra.elastic_crossed"),
        "linalg.eigen_decompose.calls": t.calls("linalg.eigen_decompose"),
        "linalg.eigen_decompose.errors": t.errors("linalg.eigen_decompose"),
        "linalg.green.calls": t.calls("linalg.green"),
        "linalg.green.self_s": t.self_s("linalg.green"),
        "linalg.green_direct.calls": t.calls("linalg.green_direct"),
        "atom.build.calls": t.calls("atom.build"),
        "atom.BlochSystem.green.calls": t.calls("atom.BlochSystem.green"),
        "atom.BlochSystem.green.self_s": t.self_s("atom.BlochSystem.green"),
        "atom.closed_forms.self_s": t.self_s(*CLOSED_FORMS),
        "twoatom.assemble.calls": t.calls("twoatom.assemble"),
        "twoatom.assemble.self_s": t.self_s("twoatom.assemble"),
        "twoatom.perturbative_orders.self_s": t.self_s("twoatom.perturbative_orders"),
        "twoatom.regression_initials.self_s": t.self_s("twoatom.regression_initials"),
        "twoatom.resolvent_apply.calls": t.calls("twoatom.resolvent_apply"),
        "twoatom.resolvent_apply.self_s": t.self_s("twoatom.resolvent_apply"),
        "twoatom.TwoAtomGenerator.pair_green.calls": t.calls("twoatom.TwoAtomGenerator.pair_green"),
        "twoatom.TwoAtomGenerator.pair_green.self_s": t.self_s("twoatom.TwoAtomGenerator.pair_green"),
        "twoatom.fixed_config_spectrum.self_s": t.self_s("twoatom.fixed_config_spectrum"),
        "disorder.monte_carlo_spectra.self_s": t.self_s("disorder.monte_carlo_spectra"),
        "disorder.sample_ms": _per_point_ms(t, "disorder.monte_carlo_spectra"),
        "pumpprobe.harmonic_solve.calls": t.calls("pumpprobe.harmonic_solve"),
        "pumpprobe.harmonic_solve.self_s": t.self_s("pumpprobe.harmonic_solve"),
        "pumpprobe.channel_densities.self_s": t.self_s("pumpprobe.channel_densities"),
        "pumpprobe.point_ms": _per_point_ms(t, "pumpprobe.channel_densities"),
        # time in cli code: main less the library calls made under it
        "cli.main.self_s": float(t.self_time[t.layer_mask("cli")].sum()),
    }
    for layer in LIBRARY_LAYERS:
        mask = t.layer_mask(layer)
        metrics[f"layer.{layer}.calls"] = int(np.count_nonzero(mask))
        metrics[f"layer.{layer}.self_s"] = float(t.self_time[mask].sum())
        metrics[f"layer.{layer}.errors"] = int(t.spans["error"][mask].sum())
    return metrics
