"""Run one `bct` CLI command with every layer of the package wrapped in spans.

    python perfbench/tracer.py TRACE_OUT CMD_ID -- <bct cli arguments>

The wrappers are installed from outside the program: each public function
and method of every `bct.*` module (plus the few private or operator names
in EXTRA that the per-layer metrics need) is replaced by a timing wrapper,
in the module that defines it and in every `bct.*` module that bound it with
`from .x import y`.  The command then runs through `bct.cli.main`, so its
stdout is the same as `python -m bct.cli`.

Every call is aggregated per name as a call count and self time (inclusive
time minus the time of nested wrapped calls).  Calls in the top MAX_DEPTH
levels of the wrapped call tree are also kept as spans (name, start, end,
parent, command id).  Everything stays in memory and is written as JSON to
TRACE_OUT when the command ends.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time

# Names outside the public API that per-layer metrics are built from.
EXTRA = {
    "CycNumber": ("__mul__", "__add__"),
    "LaurentScalar": ("__mul__",),
    "Group": ("_build_hyperplanes",),
}
MAX_DEPTH = 4


class Tracer:
    def __init__(self, cmd_id):
        self.cmd_id = cmd_id
        self.stats = {}  # name -> [calls, self seconds]
        self.counters = {}
        self.spans = []
        self._stack = []  # one [child seconds, span id] frame per active call

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, after=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            frame = [0.0, None]
            if depth < MAX_DEPTH:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] is not None:
                    parent = stack[-1][1] if stack else None
                    spans[frame[1]] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "cmd_id": self.cmd_id,
                    "stats": self.stats,
                    "counters": self.counters,
                    "spans": [
                        {"name": n, "start": s, "end": e, "parent": p,
                         "cmd_id": self.cmd_id}
                        for n, s, e, p in self.spans
                    ],
                },
                fh,
            )


def bct_modules():
    import bct

    mods = [bct]
    for info in pkgutil.iter_modules(bct.__path__):
        mods.append(importlib.import_module(f"bct.{info.name}"))
    return mods


def _targets(mod):
    """(qualified name, owner, member) for each name to wrap that `mod`
    defines; the owner is the module or the class holding the member."""
    short = mod.__name__.split(".", 1)[-1]
    for attr, obj in list(vars(mod).items()):
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            extra = EXTRA.get(attr, ())
            for mattr, member in list(vars(obj).items()):
                if mattr.startswith("_") and mattr not in extra:
                    continue
                yield f"{short}:{attr}.{mattr}", obj, member
        elif callable(obj) and not attr.startswith("_"):
            yield f"{short}:{attr}", mod, obj


def _wrap_member(tracer, name, member, after):
    if isinstance(member, property):
        return property(tracer.wrap(name, member.fget, after),
                        member.fset, member.fdel, member.__doc__)
    if isinstance(member, (classmethod, staticmethod)):
        return type(member)(tracer.wrap(name, member.__func__, after))
    if callable(member):
        return tracer.wrap(name, member, after)
    return None


def _probes(tracer):
    """Counters read from call results at layer boundaries."""
    from bct.cli import fresh_bundle

    def elements(args, G):
        tracer.count("elements", G.order)

    def collections(args, records):
        tracer.count("collections", sum(r.orbit_size for r in records))

    def module_dim(args, module):
        tracer.count("module_dim", module.dim)

    def cache_lookup(args, bundle):
        tracer.count("cache_misses" if bundle == fresh_bundle() else "cache_hits", 1)

    return {
        "reflection_groups:build_imprimitive": elements,
        "reflection_groups:build_matrix_group": elements,
        "transversality:collection_orbits": collections,
        "brauer_modules:induce": module_dim,
        "cli:cache_load": cache_lookup,
    }


def install(tracer):
    """Wrap every target and repoint every `bct.*` binding of it."""
    mods = bct_modules()
    probes = _probes(tracer)
    # id(original) -> (original, wrapper); holding the original keeps its id unique
    replaced = {}
    for mod in mods:
        for name, owner, member in _targets(mod):
            wrapper = _wrap_member(tracer, name, member, probes.get(name))
            if wrapper is None:
                continue
            # aliases such as `__rmul__ = __mul__` share the wrapper
            for alias, other in list(vars(owner).items()):
                if other is member:
                    setattr(owner, alias, wrapper)
            replaced[id(member)] = (member, wrapper)
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        sys.exit("usage: tracer.py TRACE_OUT CMD_ID -- <bct cli arguments>")
    out, cmd_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(cmd_id)
    install(tracer)
    from bct import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
