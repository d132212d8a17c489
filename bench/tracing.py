"""Spans around every call into sigmaloc, recorded from outside.

The tracer wraps each public function in every sigmaloc module
namespace that binds it.  The package, ``cli``, ``booleanization`` and
``generators`` re-import names from the modules that define them, so
patching only the defining module would miss the nested calls made
through those other namespaces.  ``SemiDecision.probe`` is wrapped on
its class.

A span is (name, start, end, parent, query), kept as five doubles in
one flat array so that a traced pass with a million calls stays small.
Spans stay in memory and are written once, when the run ends.  Self
time is a span's duration minus the durations of its direct children:
calls are nested and single-threaded, so the children never overlap.
"""

import functools
import gzip
from array import array
import inspect
import sys
import weakref
from time import perf_counter


def _bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = array("d")
        self._stack = []
        self.query = -1
        self._patches = []
        # counters computed at the layer boundaries, for the ratios
        self.counts = {}
        self._saturated = weakref.WeakKeyDictionary()

    def _bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    # -- hooks: (pre(args) -> token, post(token, args, result)) ----------

    def _hooks(self, name):
        if name == "booleanization.check_overt":
            return None, lambda _t, a, r: self._bump(
                "booleanization.check_overt.subsets", 2 ** len(a[0].elements))
        if name == "booleanization.enumerate_congruences":
            def post(_t, a, r):
                self._bump("enumerate_congruences.found", len(r))
                self._bump("enumerate_congruences.partitions",
                           _bell(len(a[0].elements)))
            return None, post
        if name == "formal_cover.saturate":
            return self._saturate_pre, None
        if name == "formal_cover.frame_of_presentation":
            def post(_t, a, r):
                self._bump("frame_of_presentation.closed", len(r))
                self._bump("frame_of_presentation.swept", 2 ** len(a[0].base))
            return None, post
        if name == "semidecision.probe":
            return self._probe_pre, self._probe_post
        return None, None

    def _saturate_pre(self, args):
        p, members = args[0], args[1]
        self._bump("saturate.calls")
        if not isinstance(members, (list, tuple, set, frozenset)):
            return None
        try:
            seen = self._saturated.setdefault(p, set())
            key = frozenset(members)
        except TypeError:
            return None
        if key not in seen:
            seen.add(key)
            self._bump("saturate.distinct")
        return None

    @staticmethod
    def _probe_pre(args):
        # stages scanned come from the last scanned stage a SemiDecision
        # keeps; without that attribute the count stays 0
        return getattr(args[0], "_scanned", None)

    def _probe_post(self, before, args, result):
        self._bump("probe.calls")
        if not isinstance(result, self._confirmed):
            self._bump("probe.unknown")
        after = getattr(args[0], "_scanned", None)
        if isinstance(before, int) and isinstance(after, int):
            self._bump("semidecision.probe.stages", max(0, after - before))

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        pre, post = self._hooks(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            base = len(spans)
            spans.extend((name_id, 0.0, 0.0,
                          stack[-1] if stack else -1, tracer.query))
            stack.append(base)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[base + 1] = start
                spans[base + 2] = end
            if post is not None:
                post(token, args, result)
            return result

        return traced

    def install(self, package="sigmaloc"):
        """Patch every namespace of the loaded package; returns self."""
        wrappers = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = getattr(obj, "__module__", "") or ""
                if not (owner == package or owner.startswith(package + ".")):
                    continue
                if obj not in wrappers:
                    short = owner[len(package) + 1:] or package
                    wrappers[obj] = self._wrap(
                        "%s.%s" % (short, obj.__name__), obj)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        semidecision = sys.modules.get(package + ".semidecision")
        if semidecision is not None:
            self._confirmed = semidecision.Confirmed
            cls = semidecision.SemiDecision
            original = cls.__dict__["probe"]
            self._patches.append((cls, "probe", original))
            cls.probe = self._wrap("semidecision.probe", original)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------

    def records(self):
        """Spans as (name, start, end, parent, query); parent and query
        are span and query numbers, -1 for none."""
        s = self.spans
        for base in range(0, len(s), 5):
            yield (self.names[int(s[base])], s[base + 1], s[base + 2],
                   int(s[base + 3]) // 5 if s[base + 3] >= 0 else -1,
                   int(s[base + 4]))

    def self_times(self):
        """Per-name (calls, self seconds), from the recorded spans."""
        spans = list(self.records())
        child = [0.0] * len(spans)
        for name, start, end, parent, _query in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {}
        own = {}
        for i, (name, start, end, _parent, _query) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + (end - start) - child[i]
        return calls, own

    def ratio(self, numerator, denominator):
        den = self.counts.get(denominator, 0)
        return self.counts.get(numerator, 0) / den if den else 0.0

    def write(self, path):
        """Gzipped text: one line per span, "name start end parent query"."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.records():
                handle.write("%s %.9f %.9f %d %d\n" % span)
