"""Persistent on-disk cache for constructed networks and execution plans.

Building and lowering ``K(2^11)`` takes ~0.2 s; the result is fully
determined by ``(family, factors, variant)`` and the code that builds it.
This module caches both the constructed
:class:`~repro.core.network.Network` (its wire arrays, loaded back through
:meth:`~repro.core.network.Network.from_wire_arrays` and its validator)
and its lowered :class:`~repro.core.plan.ExecutionPlan` under
``.repro_cache/``:

* every entry is one ``.npz`` file written with :func:`np.savez` (flat
  int64 arrays — no pickling), listed in a single ``manifest.json``;
* keys combine the caller-supplied identity (``family``, ``factors``,
  ``variant``) with a **code-version hash** over the construction and
  lowering sources, so editing any of those modules silently invalidates
  every stale entry — no manual cache busting;
* one stored plan serves every backend and semantics: the segment tables
  do not depend on the kernel that sweeps them, so the executor, not the
  artifact, chooses int64 or bit-sliced and count or sort;
* corrupted entries (truncated npz, hand-edited manifest, wrong-shape
  arrays) are treated as misses, dropped, and recounted — the cache never
  propagates a bad artifact;
* hit/miss/store counters persist in the manifest (for ``repro cache
  stats``) and are mirrored into the obs registry when observability is on.

The cache root resolves, in order: the explicit ``root`` argument, the
``REPRO_CACHE_DIR`` environment variable, ``<repo root>/.repro_cache``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Callable, Sequence

import numpy as np

from ..obs import runtime as _obs
from .network import Network
from .plan import ExecutionPlan, lower_network

__all__ = [
    "code_version_hash",
    "PlanCache",
    "default_cache",
    "set_default_cache",
    "cached_plan",
    "cached_network",
]

MANIFEST_VERSION = 1

#: Sources whose content defines cached-artifact validity.  Editing any of
#: these changes every cache key, orphaning (not corrupting) old entries.
#: The kernels (``core/semantics.py``, ``core/bitplan.py``) are not listed:
#: they sweep a stored plan but do not shape it.
_HASHED_SOURCES = (
    "core/network.py",
    "core/compiled.py",
    "core/plan.py",
    "networks/counting.py",
    "networks/staircase.py",
    "networks/two_merger.py",
    "networks/bitonic_converter.py",
    "networks/k_network.py",
    "networks/l_network.py",
    "networks/r_network.py",
    # The searched variant substitutes registry networks: its artifacts are
    # only valid for the registry contents that produced them.
    "search/registry.py",
    "search/seeds.py",
)

_code_hash: str | None = None


def code_version_hash() -> str:
    """Short hex digest of the construction/lowering source files."""
    global _code_hash
    if _code_hash is None:
        pkg = pathlib.Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        for rel in _HASHED_SOURCES:
            p = pkg / rel
            h.update(rel.encode())
            try:
                h.update(p.read_bytes())
            except OSError:
                h.update(b"<missing>")
        _code_hash = h.hexdigest()[:16]
    return _code_hash


def _obs_count(name: str) -> None:
    if _obs.enabled:
        from ..obs.metrics import default_registry

        default_registry().counter(name).inc()


def _obs_trace(event: str, **fields) -> None:
    if _obs.enabled:
        from ..obs.spans import default_span_recorder

        default_span_recorder().event(event, **fields)


def _network_arrays(net: Network) -> dict[str, np.ndarray]:
    """A network's wire arrays as np.savez-able arrays (no pickling)."""
    widths, in_concat, out_concat, _ = net.wire_arrays()
    net_inputs, net_outputs = net.io_arrays()
    return {
        "widths": widths,
        "in_concat": in_concat,
        "out_concat": out_concat,
        "net_inputs": net_inputs,
        "net_outputs": net_outputs,
        "net_scalars": np.array([net.num_wires], dtype=np.int64),
    }


def _network_from_arrays(arrays, name: str) -> Network:
    """Load through the array constructor and its vectorized validator."""
    scalars = np.asarray(arrays["net_scalars"])
    if scalars.shape != (1,):
        raise ValueError(f"bad network scalars shape {scalars.shape}")
    return Network.from_wire_arrays(
        inputs=arrays["net_inputs"],
        outputs=arrays["net_outputs"],
        widths=arrays["widths"],
        in_concat=arrays["in_concat"],
        out_concat=arrays["out_concat"],
        num_wires=int(scalars[0]),
        name=name,
    )


class PlanCache:
    """On-disk artifact cache with a JSON manifest and persistent counters."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR")
        if root is None:
            from ..obs.export import repo_root

            root = repo_root() / ".repro_cache"
        self.root = pathlib.Path(root)
        self._manifest: dict | None = None

    # -- manifest -----------------------------------------------------------

    @property
    def manifest_path(self) -> pathlib.Path:
        return self.root / "manifest.json"

    def _load_manifest(self) -> dict:
        if self._manifest is not None:
            return self._manifest
        empty = {
            "version": MANIFEST_VERSION,
            "entries": {},
            "counters": {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0},
        }
        try:
            data = json.loads(self.manifest_path.read_text())
            if (
                not isinstance(data, dict)
                or int(data.get("version", -1)) != MANIFEST_VERSION
                or not isinstance(data.get("entries"), dict)
            ):
                raise ValueError("bad manifest shape")
            data.setdefault(
                "counters", {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}
            )
        except FileNotFoundError:
            data = empty
        except (ValueError, OSError, json.JSONDecodeError):
            # A mangled manifest orphans the .npz files; they are re-stored
            # on the next miss.  Never raise out of cache plumbing.
            data = empty
            data["counters"]["corrupt"] += 1
        self._manifest = data
        return data

    def _write_manifest(self) -> None:
        if self._manifest is None:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self._manifest, indent=1, sort_keys=True))
        tmp.replace(self.manifest_path)

    def _count(self, which: str, obs_name: str) -> None:
        m = self._load_manifest()
        m["counters"][which] = int(m["counters"].get(which, 0)) + 1
        _obs_count(obs_name)

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def entry_key(
        kind: str,
        family: str,
        factors: Sequence[int],
        variant: str | None = None,
    ) -> str:
        """Filesystem-safe cache key including the code-version hash.

        ``variant=None`` names the stock network, the same as ``"stock"``."""
        fac = "x".join(str(int(f)) for f in factors)
        var = variant or "stock"
        return f"{kind}-{family}-{fac}-{var}-{code_version_hash()}"

    # -- generic npz entry store/load ---------------------------------------

    def _get(self, key: str) -> tuple[dict, dict] | None:
        """Load the arrays + meta for ``key``; None (and drop) on any defect."""
        m = self._load_manifest()
        entry = m["entries"].get(key)
        if entry is None:
            self._count("misses", "cache.misses")
            self._write_manifest()
            _obs_trace("cache_miss", key=key)
            return None
        path = self.root / entry["file"]
        try:
            with np.load(path) as npz:
                arrays = {k: npz[k] for k in npz.files}
        except Exception:
            # Truncated/garbled npz: drop the entry and report a miss.
            self._drop_entry(key, path)
            self._count("corrupt", "cache.corrupt")
            self._count("misses", "cache.misses")
            self._write_manifest()
            _obs_trace("cache_corrupt", key=key)
            return None
        self._count("hits", "cache.hits")
        self._write_manifest()
        _obs_trace("cache_hit", key=key, bytes=entry.get("bytes"))
        return arrays, entry

    def _put(self, key: str, arrays: dict, meta: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"{key}.npz"
        tmp = self.root / f"{key}.npz.tmp"
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        tmp.replace(path)
        m = self._load_manifest()
        m["entries"][key] = {
            "file": path.name,
            "bytes": path.stat().st_size,
            "meta": meta,
        }
        self._count("stores", "cache.stores")
        self._write_manifest()
        _obs_trace("cache_store", key=key, bytes=m["entries"][key]["bytes"])

    def _drop_entry(self, key: str, path: pathlib.Path) -> None:
        self._load_manifest()["entries"].pop(key, None)
        try:
            path.unlink(missing_ok=True)
        except OSError:
            pass

    # -- plans --------------------------------------------------------------

    def get_plan(
        self, family: str, factors: Sequence[int], variant: str | None = None
    ) -> ExecutionPlan | None:
        key = self.entry_key("plan", family, factors, variant)
        loaded = self._get(key)
        if loaded is None:
            return None
        arrays, entry = loaded
        try:
            return ExecutionPlan.from_arrays(
                arrays, name=entry.get("meta", {}).get("name", key)
            )
        except (ValueError, KeyError):
            self._drop_entry(key, self.root / entry["file"])
            self._count("corrupt", "cache.corrupt")
            self._write_manifest()
            return None

    def put_plan(
        self,
        family: str,
        factors: Sequence[int],
        plan: ExecutionPlan,
        variant: str | None = None,
    ) -> None:
        key = self.entry_key("plan", family, factors, variant)
        meta = {
            "name": plan.name,
            "width": plan.width,
            "depth": plan.depth,
            "size": plan.size,
            "variant": variant or "stock",
        }
        self._put(key, plan.to_arrays(), meta)

    # -- networks -----------------------------------------------------------

    def get_network(
        self, family: str, factors: Sequence[int], variant: str | None = None
    ) -> Network | None:
        key = self.entry_key("net", family, factors, variant)
        loaded = self._get(key)
        if loaded is None:
            return None
        arrays, entry = loaded
        try:
            return _network_from_arrays(
                arrays, name=entry.get("meta", {}).get("name", key)
            )
        except (ValueError, KeyError):
            self._drop_entry(key, self.root / entry["file"])
            self._count("corrupt", "cache.corrupt")
            self._write_manifest()
            return None

    def put_network(
        self,
        family: str,
        factors: Sequence[int],
        net: Network,
        variant: str | None = None,
    ) -> None:
        key = self.entry_key("net", family, factors, variant)
        meta = {
            "name": net.name,
            "width": net.width,
            "depth": net.depth,
            "size": net.size,
            "variant": variant or "stock",
        }
        self._put(key, _network_arrays(net), meta)

    # -- maintenance --------------------------------------------------------

    def stats(self) -> dict:
        """Entry count, bytes on disk, the persistent counters, and a
        per-variant entry breakdown (searched-base plans never collide with
        stock plans — the variant is part of every key and recorded in every
        entry's meta)."""
        m = self._load_manifest()
        entries = m["entries"]
        variants: dict[str, int] = {}
        for e in entries.values():
            v = str(e.get("meta", {}).get("variant", "stock"))
            variants[v] = variants.get(v, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": int(sum(int(e.get("bytes", 0)) for e in entries.values())),
            "variants": dict(sorted(variants.items())),
            **{k: int(v) for k, v in m["counters"].items()},
        }

    def clear(self) -> int:
        """Delete every cached artifact; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for p in self.root.iterdir():
                if p.suffix in (".npz", ".json", ".tmp") or p.name.endswith(
                    (".npz.tmp", ".json.tmp")
                ):
                    try:
                        p.unlink()
                        removed += 1
                    except OSError:
                        pass
        self._manifest = None
        return removed


_default_cache: PlanCache | None = None


def default_cache() -> PlanCache:
    """The process-wide cache instance (created on first use)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = PlanCache()
    return _default_cache


def set_default_cache(cache: PlanCache | None) -> PlanCache | None:
    """Swap the process-wide cache (tests, custom roots); returns previous."""
    global _default_cache
    prev = _default_cache
    _default_cache = cache
    return prev


def cached_plan(
    family: str,
    factors: Sequence[int],
    builder: Callable[[], Network],
    *,
    variant: str | None = None,
    cache: PlanCache | None = None,
) -> ExecutionPlan:
    """The execution plan for ``(family, factors, variant)``, from disk when
    possible.

    On a hit the network is never materialized — evaluation needs only the
    plan.  On a miss ``builder()`` runs once and **both** artifacts (the
    network's flat arrays and the lowered plan) are stored for next time.
    Any backend or semantics executes the returned plan, e.g.
    ``PlanExecutor(plan, backend="bitsliced", semantics="sort")``.
    """
    cache = cache or default_cache()
    plan = cache.get_plan(family, factors, variant)
    if plan is not None:
        return plan
    net = builder()
    plan = lower_network(net)
    cache.put_network(family, factors, net, variant)
    cache.put_plan(family, factors, plan, variant)
    return plan


def cached_network(
    family: str,
    factors: Sequence[int],
    builder: Callable[[], Network],
    *,
    variant: str | None = None,
    cache: PlanCache | None = None,
) -> Network:
    """The constructed network for ``(family, factors, variant)``, cached."""
    cache = cache or default_cache()
    net = cache.get_network(family, factors, variant)
    if net is not None:
        return net
    net = builder()
    cache.put_network(family, factors, net, variant)
    cache.put_plan(family, factors, lower_network(net), variant)
    return net
