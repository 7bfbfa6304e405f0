"""In-memory tracer for one benchmark pass, installed from outside the package.

Two mechanisms, both applied by rebinding names after ``import cauchylu``:

* spans: every module-level binding of a traced public function (in every
  ``cauchylu`` module that imported it) and ``ExactMatrix.matmul`` are
  replaced by a wrapper that records ``(name, start, end, parent)``;
* counts and self time: every public method of ``Polynomial`` and
  ``RationalFunction`` (operators and ``__init__`` included) is wrapped at
  class level.  Self time is a call's duration minus the time its nested
  wrapped calls took, tracer bookkeeping included, so the tracer's own cost
  lands in no layer.

``Polynomial.__init__`` also records the largest degree and the largest
coefficient bit length (numerator or denominator) of every polynomial built.
Nothing is written while tracing; ``Tracer.report`` returns everything at
the end.
"""

from __future__ import annotations

import sys
import time

# (module, function) -> span name.  Spans of one name are summed into the
# per-layer metric "<span name>_s".
TRACED_FUNCTIONS = {
    ("cauchylu.matrix", "build_matrix"): "matrix.build_matrix",
    ("cauchylu.matrix", "lu_doolittle"): "matrix.lu_doolittle",
    ("cauchylu.matrix", "det_elimination"): "matrix.det_elimination",
    ("cauchylu.closed_form", "build_L"): "closed_form.build_L",
    ("cauchylu.closed_form", "build_U"): "closed_form.build_U",
    ("cauchylu.closed_form", "det_closed"): "closed_form.det_closed",
    ("cauchylu.closed_form", "det_t1"): "closed_form.det_t1",
    ("cauchylu.closed_form", "chain_t1"): "closed_form.chain_t1",
    ("cauchylu.closed_form", "gamma_identity_left"): "closed_form.gamma",
    ("cauchylu.closed_form", "gamma_identity_right"): "closed_form.gamma",
    ("cauchylu.formats", "serialize_value"): "formats.serialize",
    ("cauchylu.verify", "verify_gamma_identities"): "verify.gamma_identities",
    ("cauchylu.verify", "verify_chain"): "verify.chain_t1",
}
# These two are named by their mode argument: verify.<suite>.<mode>.
MODE_SUITES = {
    ("cauchylu.verify", "verify_lu_product"): "verify.lu_product",
    ("cauchylu.verify", "verify_factors_match"): "verify.factors_match",
}
COUNTED_CLASSES = (("cauchylu.polynomial", "Polynomial", "polynomial"),
                   ("cauchylu.ratfunc", "RationalFunction", "ratfunc"))

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.open: list[int] = []
        self.calls: dict[str, int] = {}
        self.self_s = {"polynomial": 0.0, "ratfunc": 0.0}
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.frames: list[float] = []  # child time accumulated per open wrapped method

    # -- spans ---------------------------------------------------------------

    def _span_wrapper(self, fn, name_of):
        spans, open_ = self.spans, self.open

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name_of(args, kwargs), clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                open_.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counted methods -----------------------------------------------------

    def _method_wrapper(self, fn, layer, key, inspect_polynomial):
        frames, calls, self_s = self.frames, self.calls, self.self_s
        calls[key] = 0

        def wrapper(*args, **kwargs):
            entered = clock()
            frames.append(0.0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                self_s[layer] += ended - started - frames.pop()
                calls[key] += 1
                if inspect_polynomial:
                    self._record_size(args[0])
                if frames:
                    frames[-1] += clock() - entered

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_size(self, poly):
        coeffs = poly.coeffs
        if len(coeffs) - 1 > self.max_degree:
            self.max_degree = len(coeffs) - 1
        for c in coeffs:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    # -- installation --------------------------------------------------------

    def install(self):
        """Rebind the traced names in every loaded cauchylu module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cauchylu" or n.startswith("cauchylu.")]
        targets = {}
        for (mod, fname), span in TRACED_FUNCTIONS.items():
            targets[getattr(sys.modules[mod], fname)] = lambda a, k, span=span: span
        for (mod, fname), suite in MODE_SUITES.items():
            targets[getattr(sys.modules[mod], fname)] = (
                lambda a, k, suite=suite: f"{suite}.{a[1] if len(a) > 1 else k.get('mode', 'symbolic')}"
            )
        wrappers = {id(fn): self._span_wrapper(fn, name_of) for fn, name_of in targets.items()}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

        exact_matrix = sys.modules["cauchylu.matrix"].ExactMatrix
        matmul = self._span_wrapper(exact_matrix.matmul, lambda a, k: "matrix.matmul")
        exact_matrix.matmul = exact_matrix.__matmul__ = matmul

        for mod, cls_name, layer in COUNTED_CLASSES:
            cls = getattr(sys.modules[mod], cls_name)
            for attr, value in list(vars(cls).items()):
                if not callable(value) or isinstance(value, (staticmethod, classmethod)):
                    continue
                if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                    continue
                inspect = layer == "polynomial" and attr == "__init__"
                setattr(cls, attr, self._method_wrapper(value, layer, f"{layer}.{attr}", inspect))

    def report(self) -> dict:
        return {
            "spans": list(self.spans),
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "max_degree": self.max_degree,
            "max_coeff_bits": self.max_coeff_bits,
        }
