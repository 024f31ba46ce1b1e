"""The benchmark's workloads: their sizes and the inputs made from a seed.

Inputs come only from ``numpy.random.default_rng`` seeded with the run's
``--seed``, so one seed always gives the same requests.  The program
under test sees nothing but the generated requests.

Work is generated in *cycles*.  Every cycle of a workload holds the same
multiset of operations; only operands, order and data differ.  Each
measured phase ends on a cycle boundary, so the modelled DRAM time per
request is the same on every run and every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

#: The nine bulk ops on packed bytes: name -> (arity, numpy model).
#: ``repro.serve.loadgen.OP_MODELS`` holds the same table, but the
#: benchmark keeps its own: it is the oracle the program is checked
#: against, so it must not change when the program does, and it must
#: outlive the ``repro loadgen`` runner, which a later change may retire.
OPS: Dict[str, Tuple[int, Callable[..., np.ndarray]]] = {
    "copy": (1, lambda a: a),
    "not": (1, np.invert),
    "and": (2, np.bitwise_and),
    "or": (2, np.bitwise_or),
    "nand": (2, lambda a, b: np.invert(a & b)),
    "nor": (2, lambda a, b: np.invert(a | b)),
    "xor": (2, np.bitwise_xor),
    "xnor": (2, lambda a, b: np.invert(a ^ b)),
    "maj": (3, lambda a, b, c: (a & b) | (b & c) | (a & c)),
}
OP_NAMES = tuple(sorted(OPS))
OP_VECTORS = ("v0", "v1", "v2", "v3")
RW_VECTOR = "rw"


@dataclass(frozen=True)
class ServeSpec:
    """A server in its own process, driven over loopback TCP."""

    name: str
    jobs: int            # >= 2: ShardedDevice with sharded dispatch
    row_bytes: int
    tenants: int         # split evenly over the connections
    vector_rows: int
    read_write: bool     # each tenant also reads and writes RW_VECTOR
    window: int          # pipelined requests in flight per connection
    connections: int = 2
    banks: int = 4
    #: Whole cycles of about this long share one host-speed reading; each
    #: segment ends by draining the pipelines and probing both processes.
    segment_s: float = 2.0

    @property
    def vector_bytes(self) -> int:
        return self.row_bytes * self.vector_rows

    @property
    def vectors(self) -> Tuple[str, ...]:
        return OP_VECTORS + ((RW_VECTOR,) if self.read_write else ())

    def serve_config(self) -> Dict[str, object]:
        """``ServeConfig`` fields: quotas open, request spans off, and a
        queue far above the requests in flight, so nothing is refused."""
        slots_per_vector = -(-self.vector_rows // self.banks)
        slots = self.tenants * len(self.vectors) * slots_per_vector
        return dict(
            banks=self.banks,
            rows=slots + 24,  # + 18 reserved, scratch and spare rows
            row_bytes=self.row_bytes,
            jobs=self.jobs,
            max_queue=4096,
            max_batch_ops=512,
            max_vectors=0,
            max_rows=0,
            max_inflight=0,
            trace=False,
        )


@dataclass(frozen=True)
class LibSpec:
    """The bit-serial query ``select(compare_lt(add(a, b), c), a, b)``
    in process, over three ``width``-bit columns of ``lanes`` elements.
    One request, and one cycle, is one query: three kernel calls.  (Timed
    per kernel call, the latencies mix three lengths and their median
    jumps between them from run to run.)"""

    name: str
    profiled: bool       # run inside device.profile() with a Tracer
    lanes: int = 65536   # one 8 KiB row per bit plane
    width: int = 8
    banks: int = 4
    row_bytes: int = 8192
    #: 54 allocatable rows per subarray; a query peaks at 43.
    #: ``AmbitDriver`` hands rows out FIFO, so each query binds new
    #: addresses until the pattern repeats; with this pool the plan cache
    #: stops missing after about 25 queries (with 96 rows, after about 850).
    rows: int = 74
    #: Untimed queries before measuring, enough to fill the plan cache.
    warmup_queries: int = 50


Spec = Union[ServeSpec, LibSpec]

WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        ServeSpec("serve-small", jobs=1, row_bytes=512, tenants=128,
                  vector_rows=1, read_write=True, window=32),
        ServeSpec("serve-wide", jobs=2, row_bytes=8192, tenants=8,
                  vector_rows=32, read_write=False, window=4),
        LibSpec("lib-arith", profiled=False),
        LibSpec("lib-profiled", profiled=True),
    )
}

#: One serve request: ("op", op, dst, srcs) | ("read",) | ("write", data).
Item = Tuple


class ServeStream:
    """The requests one connection sends, for its share of the tenants."""

    def __init__(self, spec: ServeSpec, seed: int, connection: int):
        self.spec = spec
        self.rng = np.random.default_rng([seed, connection])
        count = spec.tenants // spec.connections
        self.tenants = [f"c{connection}t{i:03d}" for i in range(count)]

    def initial_data(self) -> Dict[Tuple[str, str], np.ndarray]:
        """Random contents of every vector, keyed by (tenant, vector)."""
        return {
            (tenant, vector): self._payload()
            for tenant in self.tenants
            for vector in self.spec.vectors
        }

    def _payload(self) -> np.ndarray:
        return self.rng.integers(
            0, 256, self.spec.vector_bytes, dtype=np.uint8
        )

    def cycle(self) -> List[Tuple[str, Item]]:
        """Every tenant runs each of the nine ops once (operands a random
        permutation of its vectors), plus one read and one write when the
        workload has them.  Tenants interleave, so consecutive requests
        of one tenant sit a whole tenant round apart."""
        per_tenant = []
        for _ in self.tenants:
            items: List[Item] = []
            for op in OP_NAMES:
                arity = OPS[op][0]
                perm = self.rng.permutation(len(OP_VECTORS))
                names = [OP_VECTORS[k] for k in perm[: arity + 1]]
                items.append(("op", op, names[0], tuple(names[1:])))
            if self.spec.read_write:
                items.append(("read",))
                items.append(("write", self._payload()))
            per_tenant.append(
                [items[k] for k in self.rng.permutation(len(items))]
            )
        stream = []
        for position in range(len(per_tenant[0])):
            for t in self.rng.permutation(len(self.tenants)):
                stream.append((self.tenants[t], per_tenant[t][position]))
        return stream


def lib_inputs(spec: LibSpec, seed: int) -> Tuple[np.ndarray, ...]:
    """The three input columns ``a``, ``b``, ``c``."""
    rng = np.random.default_rng(seed)
    return tuple(
        rng.integers(0, 1 << spec.width, spec.lanes, dtype=np.uint64)
        for _ in range(3)
    )


def lib_expected(spec: LibSpec, a, b, c) -> Tuple[np.ndarray, ...]:
    """numpy results of the query's three kernels: sum, mask, select."""
    total = (a + b) & np.uint64((1 << spec.width) - 1)
    mask = total < c
    return total, mask, np.where(mask, a, b)
