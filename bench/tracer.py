"""Per-layer tracing of liepowers from outside the package.

`Tracer.install` replaces the public functions that one liepowers module
calls in another with timing wrappers, without editing the package.
Each wrapper belongs to a group named ``<layer>.<part>`` (or just
``<layer>``).  For every group the tracer keeps:

- ``calls``: every entry, recursive ones included;
- ``self_s``: time inside the group's functions minus the time of the
  wrapped functions they called (children);
- ``incl_s``: time from the outermost entry to its exit, so recursion
  and nested calls of the same group are not counted twice.

The self times of all groups plus the time spent outside every wrapper
add up to the wall time of the process.  ``Mat.__matmul__`` also records
its (p, m, k, n) shape, from which `matmul_counts` derives the work done.
"""

import functools
import time
from collections import Counter

# group -> "module:qualname" of each wrapped function.  These are the
# public functions that cross module boundaries, plus `_invert`, which
# decompose calls directly.
GROUPS = {
    "linalg.matmul": ["linalg:Mat.__matmul__"],
    "linalg.echelon": ["linalg:Subspace.from_packed",
                       "linalg:Subspace.from_vectors",
                       "linalg:rref", "linalg:_invert"],
    "linalg.subspace": ["linalg:Subspace.sum", "linalg:Subspace.intersect",
                        "linalg:Subspace.contains_space",
                        "linalg:is_direct_sum", "linalg:SpanBuilder.add"],
    "linalg.solve": ["linalg:solve_equivariant_projection",
                     "linalg:affine_projection_family"],
    "descent.algebra_mul": ["descent:DescentElement.__mul__"],
    "descent.lift_idempotents": ["descent:lift_idempotents"],
    "descent.action_matrix": ["descent:x_action_matrix",
                              "descent:element_action_matrix"],
    "descent.matrix_lift": ["descent:lift_matrix_idempotent"],
    "modrep.induced_matrix": ["modrep:TensorAction.induced_matrix"],
    "modrep.apply": ["modrep:TensorAction.apply"],
    "modrep.gl_generators": ["modrep:gl_generators"],
    "freelie": ["freelie:lie_power", "freelie:subalgebra_generated",
                "freelie:bracket_products", "freelie:dynkin_matrix",
                "freelie:filtration_subspace", "freelie:pbw_monomial_vector",
                "freelie:concat_packed"],
    "decompose.construct": ["decompose:construct_B_family"],
    "decompose.certify": ["decompose:certify_decomposition"],
    "decompose.split": ["decompose:split_tensor_power",
                        "decompose:prop35_check"],
    "cli": ["cli:main"],
    "combinat": ["combinat:partitions", "combinat:compositions",
                 "combinat:witt_dim", "combinat:higher_lie_dim",
                 "combinat:p_equivalence_classes",
                 "combinat:young_character"],
}

LAYERS = ("linalg", "descent", "modrep", "freelie", "decompose", "cli",
          "combinat")


def layer_of(group):
    return group.split(".", 1)[0]


class Tracer:
    """Call counts, self and inclusive times per group, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}          # group -> [calls, self_s, incl_s]
        self.shapes = Counter()  # (p, m, k, n) of each Mat product
        self._depth = Counter()  # group -> active entries
        self._children = []      # child time of each active call

    def wrap(self, group, fn, on_call=None):
        stats = self.stats.setdefault(group, [0, 0.0, 0.0])
        depth = self._depth
        children = self._children
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            depth[group] += 1
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed - children.pop()
                depth[group] -= 1
                if not depth[group]:
                    stats[2] += elapsed
                if children:
                    children[-1] += elapsed

        return traced

    def _record_matmul(self, args):
        a, b = args
        self.shapes[(a.p, a.nrows, a.ncols, b.ncols)] += 1

    def install(self, groups=GROUPS):
        """Wrap every function in `groups` inside the imported package.

        Functions are rebound in every liepowers module that holds them,
        so calls through names imported with ``from .x import f`` are
        traced too; methods are replaced on their class.
        """
        import importlib

        modules = {name: importlib.import_module("liepowers." + name)
                   for name in ("combinat", "linalg", "freelie", "descent",
                                "modrep", "decompose", "cli")}
        modules[""] = importlib.import_module("liepowers")
        for group, targets in groups.items():
            for target in targets:
                modname, qualname = target.split(":")
                owner = modules[modname]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                hook = self._record_matmul if group == "linalg.matmul" \
                    else None
                if path:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(owner, attr, classmethod(
                            self.wrap(group, raw.__func__, hook)))
                    else:
                        setattr(owner, attr, self.wrap(group, raw, hook))
                    continue
                original = getattr(owner, attr)
                wrapped = self.wrap(group, original, hook)
                for module in modules.values():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapped)

    def snapshot(self):
        """Plain-data copy of the counters, for writing as JSON."""
        return {
            "groups": {g: {"calls": s[0], "self_s": s[1], "incl_s": s[2]}
                       for g, s in sorted(self.stats.items())},
            "shapes": [[*shape, count]
                       for shape, count in sorted(self.shapes.items())],
        }


def matmul_counts(shapes):
    """Multiply-adds and megabytes computed from recorded product shapes.

    A product of an m x k by a k x n matrix does m*k*n multiply-adds and
    touches both operands and the result once: m*k + k*n + m*n entries,
    one bit each for p = 2 (bit-packed rows) and eight bytes each for odd
    p (int64 arrays).  These are computed from the shapes, not measured.
    """
    madds = 0
    nbytes = 0.0
    for p, m, k, n, count in shapes:
        madds += m * k * n * count
        entries = m * k + k * n + m * n
        nbytes += count * entries * (0.125 if p == 2 else 8)
    return madds, nbytes / 1e6
