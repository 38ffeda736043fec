"""Self-speculative decoding: a sparse draft proposes, the target verifies.

The sparsity registry gives us cheap/expensive model *pairs* for free: the
same weights under the same method at a lower target density is a faster,
approximate version of the serving-density model.  Speculative decoding
exploits that — a low-density **draft** pass proposes ``k`` tokens one at a
time, then the serving-density **target** verifies all ``k`` (plus the token
that triggered the round) in one multi-token forward through its KV cache,
accepting the longest prefix where the draft agreed with the target's argmax.

Greedy acceptance makes the output token-identical to plain ``generate`` *by
construction*: every emitted token — accepted drafts and the correction/bonus
token alike — is the target model's argmax at its position, read off the
verify forward.  The draft only decides how many target argmaxes each verify
forward yields (between 1 and ``k + 1``); it can never change *which* tokens
come out.

Draft and target keep **separate KV caches**.  MLP sparsity changes the
hidden states feeding every later layer's attention, so draft K/V differ from
target K/V for the same tokens — neither cache can be shared or seeded from a
:class:`~repro.nn.prefix_cache.PrefixCache` (which stores target-density K/V
only).  Rollback after a partial acceptance is a cheap
:meth:`~repro.nn.attention.KVCache.truncate` — rejected positions become dead
tail entries that the next append overwrites.

Cache-state methods (DIP-CA) define token order as part of the method: the
verify forward batches draft tokens that may later be rolled back, which
would change the method's mask evolution — so they are refused up front, same
as the continuous-batching / prefix-cache precedents in
:class:`~repro.engine.inference.ContinuousBatch`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.backend import use_backend
from repro.engine.inference import ContinuousBatch, SparseInferenceEngine, _as_prompt_list, serve_continuous_greedy
from repro.nn.transformer import MASKED_BIAS, left_pad_ragged
from repro.sparsity.base import SparsityMethod

__all__ = [
    "SpeculationStats",
    "SpeculativeDecoder",
    "SpeculativeContinuousBatch",
]


def require_speculation_support(method: SparsityMethod, role: str) -> None:
    """Refuse methods whose masks depend on KV-cache state (DIP-CA).

    Token order is part of such a method: speculative decode forwards draft
    tokens that may be rolled back, which would change the method's mask
    evolution — the same reason :meth:`ContinuousBatch.from_engine` refuses
    them above width 1 and refuses prefix caching outright.
    """
    if method.requires_cache_state:
        raise ValueError(
            f"method '{method.name}' requires cache state (token order is part of the "
            f"method); speculative decoding would verify-then-roll-back {role} tokens "
            "and change its masks — use plain generate"
        )


@dataclasses.dataclass
class SpeculationStats:
    """Acceptance accounting for a speculative decode run.

    ``rounds`` counts draft/verify rounds per sequence (a batched round over
    ``n`` slots counts ``n``).  ``draft_tokens`` is tokens proposed,
    ``accepted_tokens`` the subset the target agreed with, ``bonus_tokens``
    the rounds where the *whole* draft was accepted (earning the verifier's
    free extra token), and ``emitted_tokens`` everything produced — accepted
    drafts plus one correction/bonus token per round, plus plain fallback
    steps near the token budget.
    """

    rounds: int = 0
    draft_tokens: int = 0
    accepted_tokens: int = 0
    bonus_tokens: int = 0
    emitted_tokens: int = 0

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafted tokens the target accepted (0.0 if none drafted)."""
        return self.accepted_tokens / self.draft_tokens if self.draft_tokens else 0.0

    @property
    def drafts_per_token(self) -> float:
        """Draft forwards spent per emitted token (lower is better; 0.0 if none)."""
        return self.draft_tokens / self.emitted_tokens if self.emitted_tokens else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Counters plus derived rates, JSON-ready."""
        return {
            "rounds": self.rounds,
            "draft_tokens": self.draft_tokens,
            "accepted_tokens": self.accepted_tokens,
            "bonus_tokens": self.bonus_tokens,
            "emitted_tokens": self.emitted_tokens,
            "acceptance_rate": self.acceptance_rate,
            "drafts_per_token": self.drafts_per_token,
        }

    def reset(self) -> None:
        """Zero every counter (e.g. between benchmark phases)."""
        self.rounds = 0
        self.draft_tokens = 0
        self.accepted_tokens = 0
        self.bonus_tokens = 0
        self.emitted_tokens = 0


class SpeculativeDecoder:
    """Greedy self-speculative decode over a (target, draft) engine pair.

    Both engines must wrap the *same* model instance — "self-speculative"
    means the draft is the same weights under a cheaper (lower-density)
    sparsity configuration, so no second model is loaded.

    The loop invariant (single-sequence and per-slot alike): at the start of
    each round, the target cache and the draft cache both hold every
    generated token *except* the last emitted one (``pending``), which has
    been sampled but not yet fed.  A round then:

    1. drafts ``k`` tokens with ``k`` single-token draft forwards (feeding
       ``pending`` first),
    2. verifies ``[pending, d1..dk]`` in **one** ``k+1``-token target
       forward, reading the target argmax at every position,
    3. accepts the longest prefix ``d1..dm`` matching the target and emits it
       plus the target's own token at position ``m`` (a *correction* when
       ``m < k``, the free *bonus* token when ``m == k``),
    4. rolls both caches back to the new invariant point (the draft cache is
       fed the last draft token instead when the full draft was accepted —
       it is one token short, not ahead).
    """

    def __init__(
        self,
        target: SparseInferenceEngine,
        draft: SparseInferenceEngine,
        k: int = 4,
    ):
        if k < 1:
            raise ValueError("k (draft length) must be >= 1")
        if target.model is not draft.model:
            raise ValueError(
                "self-speculative decoding shares one model between draft and target; "
                "got two different model instances"
            )
        require_speculation_support(target.method, "target")
        require_speculation_support(draft.method, "draft")
        self.target = target
        self.draft = draft
        self.k = int(k)
        self.stats = SpeculationStats()

    @classmethod
    def from_engine(
        cls,
        engine: SparseInferenceEngine,
        draft_density: float = 0.35,
        k: int = 4,
        draft_method: Optional[SparsityMethod] = None,
        calibration_sequences: Optional[Sequence[np.ndarray]] = None,
    ) -> "SpeculativeDecoder":
        """Derive the draft from ``engine``'s own method at ``draft_density``.

        ``draft_method`` overrides the derived method (it may be a different
        registry method entirely).  Methods that require calibration are
        calibrated here from ``calibration_sequences`` — the draft is a
        distinct method instance with its own state, so it cannot reuse the
        target's calibration.
        """
        if draft_method is None:
            from repro.sparsity.registry import REGISTRY

            draft_method = REGISTRY.create(engine.method.name, target_density=draft_density)
        if draft_method.requires_calibration:
            if calibration_sequences is None:
                raise ValueError(
                    f"draft method '{draft_method.name}' requires calibration; pass "
                    "calibration_sequences (or a pre-calibrated draft_method)"
                )
            with use_backend(engine.backend):
                draft_method.calibrate(engine.model, list(calibration_sequences))
        draft = SparseInferenceEngine(engine.model, draft_method, backend=engine.backend)
        return cls(engine, draft, k=k)

    # ------------------------------------------------------------ single path
    def generate(self, prompt_ids: Sequence[int], max_new_tokens: int) -> np.ndarray:
        """Greedy speculative decode of one prompt.

        Token-identical to ``target.generate(prompt, max_new_tokens,
        temperature=0.0)`` — see the class docstring for why this holds by
        construction.
        """
        prompt = np.asarray(list(prompt_ids), dtype=np.int64)
        if prompt.ndim != 1 or prompt.size == 0:
            raise ValueError("prompt must be a non-empty 1-D token sequence")
        if max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        model = self.target.model
        max_len = len(prompt) + max_new_tokens
        t_caches = model.new_kv_caches(max_seq_len=max_len)
        d_caches = model.new_kv_caches(max_seq_len=max_len)
        generated: List[int] = [int(t) for t in prompt]
        stats = self.stats

        with use_backend(self.target.backend):
            logits = model.forward_array(
                prompt, kv_caches=t_caches, mlp_override=self.target.mlp_override, last_only=True
            )
            pending = int(np.argmax(logits[-1]))
            generated.append(pending)
            emitted = 1
            stats.emitted_tokens += 1
            if max_new_tokens > 1:
                # Draft prefill: cache-only forward, logits discarded.
                model.forward_array(
                    prompt, kv_caches=d_caches, mlp_override=self.draft.mlp_override, last_only=True
                )
            while emitted < max_new_tokens:
                # Leave room for the verifier's correction/bonus token.
                k_round = min(self.k, max_new_tokens - emitted - 1)
                if k_round < 1:
                    # Last token of the budget: a plain target step is cheaper
                    # than drafting tokens that could never be emitted.
                    logits = model.forward_array(
                        np.asarray([pending], dtype=np.int64),
                        kv_caches=t_caches,
                        mlp_override=self.target.mlp_override,
                    )
                    pending = int(np.argmax(logits[-1]))
                    generated.append(pending)
                    emitted += 1
                    stats.emitted_tokens += 1
                    continue
                t_len = t_caches[0].length  # == len(generated) - 1, the invariant
                drafts: List[int] = []
                feed = pending
                for _ in range(k_round):
                    d_logits = model.forward_array(
                        np.asarray([feed], dtype=np.int64),
                        kv_caches=d_caches,
                        mlp_override=self.draft.mlp_override,
                        last_only=True,
                    )
                    feed = int(np.argmax(d_logits[-1]))
                    drafts.append(feed)
                chunk = np.asarray([pending] + drafts, dtype=np.int64)
                v_logits = model.forward_array(
                    chunk, kv_caches=t_caches, mlp_override=self.target.mlp_override
                )
                targets = np.argmax(v_logits, axis=-1)
                m = 0
                while m < k_round and int(targets[m]) == drafts[m]:
                    m += 1
                generated.extend(drafts[:m])
                pending = int(targets[m])
                generated.append(pending)
                emitted += m + 1
                stats.rounds += 1
                stats.draft_tokens += k_round
                stats.accepted_tokens += m
                stats.bonus_tokens += int(m == k_round)
                stats.emitted_tokens += m + 1
                # Restore the invariant: both caches trail the new pending
                # token.  The target rolls back its rejected tail; the draft
                # either rolls back too, or — after a full acceptance — is one
                # token *short* and gets fed the last draft token instead.
                for cache in t_caches:
                    cache.truncate(t_len + m + 1)
                if m < k_round:
                    for cache in d_caches:
                        cache.truncate(t_len + m + 1)
                elif emitted < max_new_tokens:
                    model.forward_array(
                        np.asarray([drafts[-1]], dtype=np.int64),
                        kv_caches=d_caches,
                        mlp_override=self.draft.mlp_override,
                        last_only=True,
                    )
        return np.asarray(generated, dtype=np.int64)

    # ------------------------------------------------------------ ragged path
    def generate_batch(
        self,
        prompts: Any,
        max_new_tokens: int,
        pad_id: int = 0,
    ) -> np.ndarray:
        """Ragged batched speculative decode; layout matches ``generate_batch``.

        Returns ``(batch, longest_prompt + max_new_tokens)`` with each row's
        real tokens right-aligned behind ``pad_id`` — the
        :meth:`SparseInferenceEngine.generate_batch` contract — and each row
        token-identical to its single-prompt greedy ``generate``.
        """
        sequences = _as_prompt_list(prompts)
        if max_new_tokens <= 0:
            raise ValueError("max_new_tokens must be positive")
        longest = max(len(p) for p in sequences)
        batch = SpeculativeContinuousBatch(
            self.target.model,
            mlp_override=self.target.mlp_override,
            draft_override=self.draft.mlp_override,
            k=self.k,
            max_batch_size=len(sequences),
            max_seq_len=longest + max_new_tokens,
            pad_id=pad_id,
            backend=self.target.backend,
            stats=self.stats,
        )
        results = serve_continuous_greedy(batch, sequences, [max_new_tokens] * len(sequences))
        width = longest + max_new_tokens
        out = np.full((len(sequences), width), pad_id, dtype=np.int64)
        for row, seq in enumerate(results):
            out[row, width - len(seq):] = seq
        return out


class SpeculativeContinuousBatch(ContinuousBatch):
    """A :class:`ContinuousBatch` that decodes speculatively per slot.

    Keeps a second, draft-density set of slot-wise KV caches mirroring the
    target caches (draft K/V differ — sparsity changes the hidden states
    feeding attention, so the caches cannot be shared).  :meth:`admit` runs
    one extra batched draft prefill; :meth:`step_greedy` replaces the
    one-token lock-step with draft/verify rounds that emit *up to*
    ``k + 1`` tokens per slot per call.

    A prefix cache is refused: its blocks hold target-density K/V only, and
    seeding the target cache while the draft re-prefills would break the
    caches' position alignment.
    """

    def __init__(
        self,
        model: Any,
        mlp_override: Any = None,
        draft_override: Any = None,
        k: int = 4,
        stats: Optional[SpeculationStats] = None,
        **kwargs: Any,
    ):
        if kwargs.get("prefix_cache") is not None:
            raise ValueError(
                "speculative decoding cannot share a prefix cache: cached blocks hold "
                "target-density K/V only, but the draft pass needs its own draft K/V "
                "for the same prefix"
            )
        if k < 1:
            raise ValueError("k (draft length) must be >= 1")
        super().__init__(model, mlp_override=mlp_override, **kwargs)
        self.draft_override = draft_override
        self.k = int(k)
        self.draft_caches = model.new_kv_caches(self.max_seq_len, batch_size=self.max_batch_size)
        self.stats = stats if stats is not None else SpeculationStats()

    @classmethod
    def from_engines(
        cls,
        engine: SparseInferenceEngine,
        draft_engine: SparseInferenceEngine,
        k: int = 4,
        **kwargs: Any,
    ) -> "SpeculativeContinuousBatch":
        """Build from a (target, draft) engine pair sharing one model."""
        if draft_engine.model is not engine.model:
            raise ValueError(
                "self-speculative decoding shares one model between draft and target; "
                "got two different model instances"
            )
        require_speculation_support(engine.method, "target")
        require_speculation_support(draft_engine.method, "draft")
        kwargs.setdefault("backend", engine.backend)
        return cls(
            engine.model,
            mlp_override=engine.mlp_override,
            draft_override=draft_engine.mlp_override,
            k=k,
            **kwargs,
        )

    # ------------------------------------------------------------- operations
    def admit(
        self,
        prompts: Sequence[np.ndarray],
        request_ids: Optional[Sequence[str]] = None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
        cache_prefix: Optional[Sequence[bool]] = None,
    ) -> Any:
        """Prefill target slots, then mirror the prefill into the draft caches."""
        prompt_list = [np.asarray(p, dtype=np.int64).reshape(-1) for p in prompts]
        slots, logits = super().admit(prompt_list, request_ids, deadlines, cache_prefix)
        padded, position_ids, key_bias, _ = left_pad_ragged(prompt_list, self.pad_id)
        longest = padded.shape[1]
        staging = self.model.new_kv_caches(max_seq_len=longest, batch_size=len(prompt_list))
        with use_backend(self.backend):
            self.model.forward_array(
                padded,
                kv_caches=staging,
                mlp_override=self.draft_override,
                attention_mask=key_bias,
                position_ids=position_ids,
                last_only=True,
            )
        for row, slot in enumerate(slots):
            pad = longest - len(prompt_list[row])
            for cache, staged in zip(self.draft_caches, staging):
                cache.insert_slot(slot, staged.keys[row, :, pad:longest], staged.values[row, :, pad:longest])
        return slots, logits

    def evict(self, slot: int) -> None:
        """Retire a slot in both the target and draft cache sets."""
        super().evict(slot)
        for cache in self.draft_caches:
            cache.evict_slot(int(slot))

    def reset(self) -> None:
        """Evict everything from both cache sets."""
        super().reset()
        for cache in self.draft_caches:
            cache.reset()

    def _draft_step(self, slots: List[int], tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """One lock-step draft forward over ``slots``; returns last-token logits.

        Caller runs this under :func:`use_backend` (drafting is a hot loop; we
        enter the backend context once per round, not once per draft token).
        """
        ids = np.asarray(tokens, dtype=np.int64).reshape(len(slots), 1)
        new_lengths = lengths + 1
        total = int(new_lengths.max())
        key_bias = np.where(np.arange(total)[None, :] < new_lengths[:, None], 0.0, MASKED_BIAS)
        logits = self.model.forward_array(
            ids,
            kv_caches=[cache.slot_view(slots) for cache in self.draft_caches],
            mlp_override=self.draft_override,
            attention_mask=key_bias,
            position_ids=lengths[:, None],
        )
        return logits[:, -1, :]

    def step_greedy(self, slots: Sequence[int], tokens: Sequence[int]) -> List[List[int]]:
        """One speculative round per slot; returns the emitted tokens per slot.

        ``tokens[i]`` is slot ``i``'s pending token (last emitted, not yet
        fed).  Each returned list holds between 1 and ``k + 1`` tokens, every
        one of them a target-model argmax — so feeding them to a greedy driver
        yields exactly the plain ``generate`` continuation.  Callers decoding
        to a budget trim the list at the budget and evict the slot (the
        trimmed tokens are beyond-budget continuations, not wrong tokens).

        The draft length is clamped round-wise so the *longest* slot's verify
        still fits its cache; when even one draft token cannot fit, the round
        degrades to a plain lock-step target step.
        """
        slot_list = [int(s) for s in slots]
        if not slot_list:
            raise ValueError("step needs at least one slot")
        for slot in slot_list:
            if not self.occupied[slot]:
                raise ValueError(f"slot {slot} is not occupied")
        n = len(slot_list)
        lengths = self.caches[0].lengths[slot_list]
        k_eff = min(self.k, self.max_seq_len - 1 - int(lengths.max()))
        if k_eff < 1:
            # The longest slot has no draft room: plain lock-step round.  The
            # draft caches still consume the pending token (cache-only
            # forward) so they stay length-synced with the target caches —
            # k_eff can recover once the long slot retires.
            logits = self.step(slot_list, tokens)
            with use_backend(self.backend):
                self._draft_step(slot_list, np.asarray(tokens, dtype=np.int64), lengths)
            self.stats.emitted_tokens += n
            return [[int(np.argmax(row))] for row in logits]

        pending = np.asarray(tokens, dtype=np.int64)
        drafts = np.empty((n, k_eff), dtype=np.int64)
        with use_backend(self.backend):
            feed = pending
            for j in range(k_eff):
                d_logits = self._draft_step(slot_list, feed, lengths + j)
                drafts[:, j] = np.argmax(d_logits, axis=-1)
                feed = drafts[:, j]
            # Verify [pending, d1..dk] for every slot in ONE multi-token
            # forward.  Slots sit at different lengths, so the mask must be
            # per-query: query j of slot i sees keys < lengths[i] + 1 + j.
            chunk = np.concatenate([pending[:, None], drafts], axis=1)
            offsets = np.arange(k_eff + 1)
            visible = np.arange(int(lengths.max()) + k_eff + 1)[None, None, :] < (
                lengths[:, None, None] + 1 + offsets[None, :, None]
            )
            key_bias = np.where(visible, 0.0, MASKED_BIAS)
            v_logits = self.model.forward_array(
                chunk,
                kv_caches=[cache.slot_view(slot_list) for cache in self.caches],
                mlp_override=self.mlp_override,
                attention_mask=key_bias,
                position_ids=lengths[:, None] + offsets[None, :],
            )
            targets = np.argmax(v_logits, axis=-1)  # (n, k_eff + 1)
            matches = targets[:, :k_eff] == drafts
            accepted = np.where(matches.all(axis=1), k_eff, np.argmin(matches, axis=1))

            emitted: List[List[int]] = []
            fully_accepted: List[int] = []
            for i, slot in enumerate(slot_list):
                m = int(accepted[i])
                emitted.append([int(t) for t in drafts[i, :m]] + [int(targets[i, m])])
                new_len = int(lengths[i]) + 1 + m
                for cache in self.caches:
                    cache.truncate_slot(slot, new_len)
                if m == k_eff:
                    fully_accepted.append(i)
                else:
                    for cache in self.draft_caches:
                        cache.truncate_slot(slot, new_len)
            if fully_accepted:
                # Fully-accepted slots' draft caches are one token *short* of
                # the invariant (the last draft was never fed back) — catch
                # them up with one cache-only lock-step forward.
                sub_slots = [slot_list[i] for i in fully_accepted]
                sub_lengths = self.draft_caches[0].lengths[sub_slots]
                self._draft_step(sub_slots, drafts[fully_accepted, -1], sub_lengths)

        self.stats.rounds += n
        self.stats.draft_tokens += n * k_eff
        self.stats.accepted_tokens += int(accepted.sum())
        self.stats.bonus_tokens += len(fully_accepted)
        self.stats.emitted_tokens += sum(len(row) for row in emitted)
        return emitted

