"""Span recorder for the traced benchmark run.

It wraps each layer's public entry points from outside the package. The
modules import each other's functions by name, so every name is patched
in the module where it is looked up (pde.integrate, reduced.integrate,
cli.solve_to_blowup, ...). Each call becomes one span: name, start, end,
parent span, and a few attributes read from what the call returned.
Spans stay in memory and are written out once, when the run ends; the
parent process derives the per-layer metrics from that file (layers.py).
"""

import functools
import json
import os
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        # one list per span: [name id, start, end, parent index, attrs]
        self.spans = []
        self._open = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name, fn, args, kwargs, describe=None):
        """Run fn(*args, **kwargs) inside a span; describe(result, args,
        kwargs) or describe(exception, ...) returns the span's attributes."""
        span = [self._name_id(name), 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = _clock()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span[2] = _clock()
            self._open.pop()
            if describe is not None and getattr(exc, "trajectory", None) is not None:
                span[4] = describe(exc.trajectory, args, kwargs)
            raise
        span[2] = _clock()
        self._open.pop()
        if describe is not None:
            span[4] = describe(out, args, kwargs)
        return out

    def wrap(self, owner, attr, name, describe=None, adapt=None):
        """Replace owner.attr by a traced version; adapt(args, kwargs) may
        swap arguments (e.g. wrap a callable passed in) before the call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            return self.call(name, fn, args, kwargs, describe)

        setattr(owner, attr, traced)

    def traced_callable(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def install(self):
        from blowup_lab import (asymptotics, cli, experiments, integrator, io_utils,
                                pde, reduced, tracker)

        # pde
        def make_rhs_traced(fn):
            @functools.wraps(fn)
            def make_rhs(*args, **kwargs):
                return self.traced_callable("pde.rhs", fn(*args, **kwargs))
            return make_rhs

        pde.make_rhs = make_rhs_traced(pde.make_rhs)
        for module in (experiments, cli, pde):
            self.wrap(module, "solve_to_blowup", "pde.solve_to_blowup")
        for module in (tracker, experiments, pde):
            self.wrap(module, "u_from_v", "pde.u_from_v")

        # integrator: pde's solves, reduced's two-mode runs and the legs of
        # integrate_path each look up `integrate` in their own module
        for module, caller in ((pde, "pde"), (reduced, "reduced"), (integrator, "path")):
            self.wrap(module, "integrate", "integrator.integrate",
                      describe=_describe_integrate(caller),
                      adapt=self._adapt_integrate(caller))
        self.wrap(pde, "integrate_path", "integrator.integrate_path")
        self.wrap(integrator.Trajectory, "state_at", "integrator.state_at")

        # reduced, asymptotics, experiments: every public function
        self.wrap(reduced, "solve_two_mode", "reduced.solve_two_mode")
        for module in (asymptotics, experiments):
            for attr, fn in list(vars(module).items()):
                if (callable(fn) and not attr.startswith("_") and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == module.__name__):
                    self.wrap(module, attr, f"{module.__name__.rsplit('.', 1)[1]}.{attr}")

        # spectral transforms where the other layers look them up
        for module, attr in ((pde, "synthesize"), (pde, "analyze"),
                             (experiments, "synthesize")):
            self.wrap(module, attr, f"spectral.{attr}")

        # tracker
        self.wrap(tracker, "build_track", "tracker.build_track", describe=_describe_track)
        self.wrap(tracker, "root_on_axis", "tracker.root_on_axis")
        self.wrap(tracker, "strip_width_estimate", "tracker.strip_width_estimate")

        # io_utils and cli
        self.wrap(cli, "write_csv", "io_utils.write_csv",
                  describe=lambda out, args, kwargs: {"bytes": os.path.getsize(args[0])})
        self.wrap(io_utils.RunManifest, "write", "io_utils.manifest")
        self.wrap(io_utils.RunManifest, "register", "io_utils.manifest")
        self.wrap(cli, "main", "cli.main")

    def _adapt_integrate(self, caller):
        from blowup_lab.integrator import EventSpec

        def adapt(args, kwargs):
            args = list(args)
            if caller == "reduced":  # the two-mode right-hand side
                args[0] = self.traced_callable("reduced.rhs", args[0])
            events = kwargs.get("events", args[5] if len(args) > 5 else ())
            if events:
                kwargs = dict(kwargs, events=[
                    EventSpec(self.traced_callable("integrator.event", ev.observable),
                              ev.direction, ev.root_tol) for ev in events])
                del args[5:]
            return tuple(args), kwargs
        return adapt

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "names": self.names, "spans": self.spans}, fh)


def _describe_integrate(caller):
    def describe(out, args, kwargs):
        traj = out[0] if isinstance(out, tuple) else out
        segs = traj.dense_segments
        size = segs[0].r1.size if segs else 0
        events = kwargs.get("events", args[5] if len(args) > 5 else ())
        return {"caller": caller, "accepted": len(segs), "events": len(events),
                "dense_bytes": len(segs) * 5 * size * 16,
                "h": [seg.h for seg in segs] if caller == "pde" else []}
    return describe


def _describe_track(out, args, kwargs):
    return {"snapshots": int(out.times.size),
            "usable_root": int(out.usable_root().sum()),
            "usable_fit": int(out.usable_fit().sum())}
