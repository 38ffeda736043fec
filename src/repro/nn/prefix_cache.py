"""Ref-counted trie of immutable KV blocks for shared prompt heads.

Serving traffic is dominated by prompts that share a head — a system prompt,
a few-shot preamble — yet a plain continuous batch prefills every request's
full prompt from scratch.  :class:`PrefixCache` stores the key/value arrays
of already-prefilled prompt heads at *block* granularity (vLLM-style): a
prompt is split into consecutive ``block_size``-token chunks, each chunk is
one trie node holding its own per-layer K/V slice, and a later prompt that
shares the head walks the trie to reuse the longest chain of matching blocks
(:meth:`lookup`), so prefill only runs on the unseen suffix.

Keys in this codebase are RoPE-rotated at *absolute* positions starting at 0
for every slot (see :meth:`~repro.nn.attention.KVCache.insert_slot`), which
is exactly what makes prefix K/V position-independent across requests: a
shared head always occupies positions ``0..P-1``, so its rotated keys are
identical in every request that starts with it.

Safety properties:

* **Immutability** — cached arrays are copies with the writeable flag
  cleared; a consumer can never corrupt a block another request is reading.
* **Ref-counting** — :meth:`acquire`/:meth:`release` pin a match's blocks
  (and, transitively, their ancestors, which are never leaves while a child
  exists) so eviction cannot free K/V an in-flight prefill is copying.
* **Bounded memory** — inserts evict least-recently-used, unreferenced leaf
  blocks until the cache fits ``max_bytes``.

The cache is thread-safe; all operations take an internal lock.  Methods
whose masks depend on a cache state (``requires_cache_state``, i.e. DIP-CA)
define token order as part of the method, so skipping prefix recomputation
would change their outputs — callers must not attach a prefix cache for
them (:meth:`~repro.engine.inference.ContinuousBatch.from_engine` refuses).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class _Block:
    """One trie node: a ``block_size``-token chunk of some prompt head.

    Holds the per-layer keys/values of *its own chunk only*; the full prefix
    K/V of a match is the concatenation along the chain from the root.  The
    link to the parent is weak, so the trie holds no reference cycle and a
    dropped cache frees its arrays at once instead of at the next cyclic
    garbage collection.
    """

    __slots__ = ("tokens", "keys", "values", "children", "parent", "refcount", "last_used", "nbytes",
                 "__weakref__")

    def __init__(
        self,
        tokens: Tuple[int, ...],
        keys: List[np.ndarray],
        values: List[np.ndarray],
        parent: Optional["_Block"],
    ):
        self.tokens = tokens
        self.keys = keys
        self.values = values
        self.children: Dict[Tuple[int, ...], _Block] = {}
        self.parent = weakref.ref(parent) if parent is not None else None
        self.refcount = 0
        self.last_used = 0
        self.nbytes = int(sum(k.nbytes + v.nbytes for k, v in zip(keys, values)))


class PrefixMatch:
    """The longest cached chain of blocks matching a prompt's head.

    ``length`` is the number of prefix tokens covered (always a multiple of
    the cache's ``block_size``); :meth:`assemble` concatenates the per-block
    K/V into per-layer ``(n_kv_heads, length, head_dim)`` arrays ready to
    seed a KV cache.  Hold the match acquired
    (:meth:`PrefixCache.acquire` … :meth:`PrefixCache.release`) for as long
    as the underlying block arrays are being read.
    """

    __slots__ = ("blocks", "length")

    def __init__(self, blocks: Tuple[_Block, ...]):
        self.blocks = blocks
        self.length = sum(len(b.tokens) for b in blocks)

    def assemble(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(keys, values)`` pairs covering the whole matched prefix."""
        n_layers = len(self.blocks[0].keys)
        return [
            (
                np.concatenate([b.keys[layer] for b in self.blocks], axis=1),
                np.concatenate([b.values[layer] for b in self.blocks], axis=1),
            )
            for layer in range(n_layers)
        ]


class PrefixCache:
    """LRU-evicted, ref-counted trie of immutable KV blocks (see module doc).

    ``max_bytes`` bounds the total K/V payload; ``block_size`` is the token
    granularity of sharing (a prompt head shorter than one block is never
    cached, and a match always covers a whole number of blocks).
    """

    def __init__(self, max_bytes: int, block_size: int = 16):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.max_bytes = int(max_bytes)
        self.block_size = int(block_size)
        self._root: Dict[Tuple[int, ...], _Block] = {}
        self._blocks: set = set()
        self._bytes = 0
        self._tick = 0
        self._lock = threading.Lock()
        # Counters for stats().
        self._lookups = 0
        self._hits = 0
        self._hit_tokens = 0
        self._inserted_blocks = 0
        self._evicted_blocks = 0

    # ------------------------------------------------------------------ lookup
    def lookup(self, tokens: Sequence[int], max_length: Optional[int] = None) -> Optional[PrefixMatch]:
        """Longest chain of cached blocks prefixing ``tokens``.

        ``max_length`` caps the match (in tokens) — decode callers pass
        ``len(prompt) - 1`` so at least one token is always left to forward
        (logits are needed for the first sampled token).  Returns ``None``
        when not even the first block matches.
        """
        ids = [int(t) for t in tokens]
        usable = len(ids) if max_length is None else min(len(ids), int(max_length))
        with self._lock:
            self._tick += 1
            self._lookups += 1
            matched: List[_Block] = []
            children = self._root
            for start in range(0, usable - self.block_size + 1, self.block_size):
                chunk = tuple(ids[start : start + self.block_size])
                block = children.get(chunk)
                if block is None:
                    break
                block.last_used = self._tick
                matched.append(block)
                children = block.children
            if not matched:
                return None
            self._hits += 1
            match = PrefixMatch(tuple(matched))
            self._hit_tokens += match.length
            return match

    # ------------------------------------------------------------- ref-counting
    def acquire(self, match: PrefixMatch) -> None:
        """Pin a match's blocks against eviction while their arrays are read."""
        with self._lock:
            for block in match.blocks:
                block.refcount += 1

    def release(self, match: PrefixMatch) -> None:
        """Unpin a previously acquired match."""
        with self._lock:
            for block in match.blocks:
                if block.refcount <= 0:
                    raise ValueError("release() without a matching acquire()")
                block.refcount -= 1

    # ------------------------------------------------------------------- insert
    def insert(
        self,
        tokens: Sequence[int],
        layer_keys: Sequence[np.ndarray],
        layer_values: Sequence[np.ndarray],
    ) -> int:
        """Publish a prefilled prompt's K/V; returns the number of new blocks.

        ``layer_keys[l]`` / ``layer_values[l]`` hold layer ``l``'s K/V for the
        whole prompt, shape ``(n_kv_heads, len(tokens), head_dim)`` — exactly
        the unpadded slices a prefill wrote.  Only whole ``block_size`` chunks
        are published; chunks already in the trie are skipped (their arrays
        are identical by construction).  New blocks are *copies* marked
        read-only, so the caller's staging buffers can be reused freely.
        """
        ids = [int(t) for t in tokens]
        with self._lock:
            self._tick += 1
            created = 0
            children = self._root
            parent: Optional[_Block] = None
            for start in range(0, len(ids) - self.block_size + 1, self.block_size):
                chunk = tuple(ids[start : start + self.block_size])
                block = children.get(chunk)
                if block is None:
                    keys = [np.array(k[:, start : start + self.block_size], copy=True) for k in layer_keys]
                    values = [
                        np.array(v[:, start : start + self.block_size], copy=True) for v in layer_values
                    ]
                    for array in (*keys, *values):
                        array.setflags(write=False)
                    block = _Block(chunk, keys, values, parent)
                    children[chunk] = block
                    self._blocks.add(block)
                    self._bytes += block.nbytes
                    self._inserted_blocks += 1
                    created += 1
                block.last_used = self._tick
                parent = block
                children = block.children
            self._shrink()
            return created

    def _shrink(self) -> None:
        """Evict LRU unreferenced leaf blocks until the byte budget holds."""
        while self._bytes > self.max_bytes:
            candidates = [b for b in self._blocks if not b.children and b.refcount == 0]
            if not candidates:
                return  # everything left is pinned or interior
            victim = min(candidates, key=lambda b: b.last_used)
            self._evict(victim)

    def _evict(self, block: _Block) -> None:
        parent = block.parent() if block.parent is not None else None
        owner = parent.children if parent is not None else self._root
        owner.pop(block.tokens, None)
        self._blocks.discard(block)
        self._bytes -= block.nbytes
        self._evicted_blocks += 1

    def clear(self) -> None:
        """Drop every block (regardless of refcounts); counters are kept."""
        with self._lock:
            self._root = {}
            self._blocks = set()
            self._bytes = 0

    # -------------------------------------------------------------------- stats
    @property
    def bytes_used(self) -> int:
        return self._bytes

    def stats(self) -> Dict[str, object]:
        """Counters for ``/stats``: sizes, hit rate, token savings."""
        with self._lock:
            return {
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "block_size": self.block_size,
                "blocks": len(self._blocks),
                "lookups": self._lookups,
                "hits": self._hits,
                "misses": self._lookups - self._hits,
                "hit_rate": (self._hits / self._lookups) if self._lookups else 0.0,
                "hit_tokens": self._hit_tokens,
                "inserted_blocks": self._inserted_blocks,
                "evicted_blocks": self._evicted_blocks,
            }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"PrefixCache(blocks={len(self._blocks)}, bytes={self._bytes}/{self.max_bytes}, "
            f"block_size={self.block_size})"
        )
