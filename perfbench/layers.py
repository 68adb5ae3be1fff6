"""Per-layer metrics from the spans a traced run wrote (see tracer.py).

A span's self time is its duration minus the durations of its direct
children. A layer's time is the summed duration of its outermost spans,
those whose parent belongs to another layer, so nested calls inside one
layer are not counted twice.
"""

import statistics


def _layer(name):
    return name.split(".", 1)[0]


def per_layer(trace):
    names = trace["names"]
    spans = [(names[s[0]], s[1], s[2], s[3], s[4] or {}) for s in trace["spans"]]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def select(pred):
        return [i for i, s in enumerate(spans) if pred(s[0])]

    def count(name):
        return len(select(lambda n: n == name))

    def total(idx):
        return sum(spans[i][2] - spans[i][1] for i in idx)

    def self_time(idx):
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in idx)

    def outermost(layer):
        return [i for i in select(lambda n: _layer(n) == layer)
                if spans[i][3] < 0 or _layer(spans[spans[i][3]][0]) != layer]

    def per_call(idx, scale):
        return total(idx) / len(idx) * scale if idx else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    rhs = select(lambda n: n == "pde.rhs")
    solves = select(lambda n: n == "pde.solve_to_blowup")
    u_from_v = select(lambda n: n == "pde.u_from_v")
    integrates = select(lambda n: n == "integrator.integrate")
    attrs = [spans[i][4] for i in integrates]
    accepted = sum(a["accepted"] for a in attrs)
    evented_steps = sum(a["accepted"] for a in attrs if a["events"])
    h = [x for a in attrs for x in a["h"]]
    state_at = select(lambda n: n == "integrator.state_at")
    two_mode = select(lambda n: n == "reduced.solve_two_mode")
    tracks = [spans[i][4] for i in select(lambda n: n == "tracker.build_track")]
    snapshots = sum(t["snapshots"] for t in tracks)
    roots = select(lambda n: n == "tracker.root_on_axis")
    fits = select(lambda n: n == "tracker.strip_width_estimate")
    csv = select(lambda n: n == "io_utils.write_csv")
    commands = count("cli.main")
    pde_integrations = (sum(1 for a in attrs if a["caller"] == "pde")
                        + count("integrator.integrate_path"))

    return {
        "pde.rhs_calls": (len(rhs), "count"),
        "pde.rhs_us": (per_call(rhs, 1e6), "us"),
        "pde.rhs_s": (total(rhs), "s"),
        "pde.solve_to_blowup_calls": (len(solves), "count"),
        "pde.solve_to_blowup_s": (total(solves), "s"),
        "pde.u_from_v_calls": (len(u_from_v), "count"),
        "pde.u_from_v_us": (per_call(u_from_v, 1e6), "us"),
        "integrator.integrate_calls": (len(integrates), "count"),
        "integrator.accepted_steps": (accepted, "count"),
        "integrator.rhs_per_step": (
            ratio(len(rhs) + count("reduced.rhs"), accepted), "evals/step"),
        "integrator.stepper_self_s": (self_time(integrates), "s"),
        "integrator.h_median": (statistics.median(h) if h else 0.0, "t"),
        "integrator.h_min": (min(h) if h else 0.0, "t"),
        "integrator.event_refine_calls": (count("integrator.event") - evented_steps, "count"),
        "integrator.path_s": (total(select(lambda n: n == "integrator.integrate_path")), "s"),
        "integrator.state_at_calls": (len(state_at), "count"),
        "integrator.state_at_us": (per_call(state_at, 1e6), "us"),
        "integrator.dense_bytes": (sum(a["dense_bytes"] for a in attrs), "B_computed"),
        "reduced.two_mode_calls": (len(two_mode), "count"),
        "reduced.two_mode_s": (total(two_mode), "s"),
        "asymptotics.calls": (len(outermost("asymptotics")), "count"),
        "asymptotics.s": (total(outermost("asymptotics")), "s"),
        "spectral.synthesize_calls": (count("spectral.synthesize"), "count"),
        "spectral.analyze_calls": (count("spectral.analyze"), "count"),
        "spectral.s": (total(outermost("spectral")), "s"),
        "tracker.snapshots": (snapshots, "count"),
        "tracker.root_calls": (len(roots), "count"),
        "tracker.root_ms": (per_call(roots, 1e3), "ms"),
        "tracker.fit_calls": (len(fits), "count"),
        "tracker.fit_ms": (per_call(fits, 1e3), "ms"),
        "tracker.usable_root_frac": (
            ratio(sum(t["usable_root"] for t in tracks), snapshots), "frac"),
        "tracker.usable_fit_frac": (
            ratio(sum(t["usable_fit"] for t in tracks), snapshots), "frac"),
        "tracker.build_track_s": (total(select(lambda n: n == "tracker.build_track")), "s"),
        "experiments.self_s": (self_time(select(lambda n: _layer(n) == "experiments")), "s"),
        "io_utils.write_csv_calls": (len(csv), "count"),
        "io_utils.write_csv_s": (total(csv), "s"),
        "io_utils.bytes_written": (sum(spans[i][4]["bytes"] for i in csv), "B"),
        "io_utils.manifest_s": (total(select(lambda n: n == "io_utils.manifest")), "s"),
        "cli.commands": (commands, "count"),
        "cli.integrations_per_command": (ratio(pde_integrations, commands), "count"),
    }
