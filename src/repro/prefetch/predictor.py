"""Predicting likely components from the CP-network.

The predictor reasons the way reference [12] suggests: the viewer's next
explicit choice is most likely a presentation form the author considers
*good* in the current context, and granting that choice drags correlated
components with it (via :func:`best_completion`). Concretely, for every
primitive component we walk the author's conditional order given the
current outcome — alternatives high in that order get geometrically more
weight — and we add the payloads of the components that would *change as
a consequence* of each hypothetical choice, at a discount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.cpnet.compiled import compile_cpnet, compiled_enabled
from repro.cpnet.reasoning import best_completion
from repro.document.component import PrimitiveMultimediaComponent
from repro.document.document import MultimediaDocument


@dataclass(frozen=True)
class PrefetchCandidate:
    """One payload worth prefetching."""

    component: str
    value: str
    score: float
    size_bytes: int

    @property
    def key(self) -> str:
        return f"{self.component}={self.value}"


class CPNetPredictor:
    """Likelihood ranking of presentation payloads.

    Parameters
    ----------
    document:
        The open document (its network is consulted live, so §4.2 updates
        are automatically reflected).
    rank_decay:
        Weight ratio between consecutive ranks in an author order.
    consequence_discount:
        Weight multiplier for payloads pulled in as side effects of a
        hypothetical choice rather than by the choice itself.
    """

    def __init__(
        self,
        document: MultimediaDocument,
        rank_decay: float = 0.5,
        consequence_discount: float = 0.4,
    ) -> None:
        if not 0 < rank_decay < 1:
            raise ValueError(f"rank_decay must be in (0,1), got {rank_decay}")
        if not 0 <= consequence_discount <= 1:
            raise ValueError(
                f"consequence_discount must be in [0,1], got {consequence_discount}"
            )
        self.document = document
        self.rank_decay = rank_decay
        self.consequence_discount = consequence_discount

    def candidates(
        self,
        outcome: Mapping[str, str],
        evidence: Mapping[str, str] | None = None,
        recent_choices: list[str] | None = None,
        locality_boost: float = 4.0,
        max_candidates: int | None = None,
    ) -> list[PrefetchCandidate]:
        """Payloads the viewer is likely to need next, best first.

        *outcome* is the currently displayed configuration; *evidence*
        the standing explicit choices (kept fixed in hypotheticals);
        *recent_choices* the components the viewer touched last —
        candidates in the same top-level section get ``locality_boost``,
        modelling attention locality within the document hierarchy.
        """
        evidence = dict(evidence or {})
        hot_sections = {
            path.split(".")[0] for path in (recent_choices or [])[-2:]
        }
        network = self.document.network
        # The hypothetical sweep below runs one best_completion per
        # (component, alternative) pair; compiling the net once up front
        # turns every sweep into flat-table lookups. A whole predictor
        # run reuses one compilation (the regression test pins this).
        evaluator = compile_cpnet(network) if compiled_enabled() else None
        scores: dict[tuple[str, str], float] = {}
        components = self.document.component_index().nodes
        for path, node in components.items():
            if not isinstance(node, PrimitiveMultimediaComponent):
                continue
            if evaluator is not None:
                order = evaluator.order_for(path, outcome)
            else:
                order = network.cpt(path).order_for(outcome)
            weight = 1.0
            for value in order:
                if value == outcome.get(path):
                    continue  # already on screen
                if node.presentation_size(value) > 0:
                    key = (path, value)
                    scores[key] = scores.get(key, 0.0) + weight
                # Consequences of hypothetically choosing this value.
                hypothetical_evidence = {**evidence, path: value}
                if evaluator is not None:
                    hypothetical = evaluator.best_completion(hypothetical_evidence)
                else:
                    hypothetical = best_completion(network, hypothetical_evidence)
                for other_path, other_value in hypothetical.items():
                    if other_path == path or other_path not in components:
                        continue
                    if other_value == outcome.get(other_path):
                        continue
                    other_node = components[other_path]
                    if not isinstance(other_node, PrimitiveMultimediaComponent):
                        continue
                    if other_node.presentation_size(other_value) > 0:
                        key = (other_path, other_value)
                        scores[key] = scores.get(key, 0.0) + (
                            weight * self.consequence_discount
                        )
                weight *= self.rank_decay
        if hot_sections:
            scores = {
                (path, value): (
                    score * locality_boost
                    if path.split(".")[0] in hot_sections
                    else score
                )
                for (path, value), score in scores.items()
            }
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        if max_candidates is not None:
            ranked = ranked[:max_candidates]
        return [
            PrefetchCandidate(
                component=path,
                value=value,
                score=score,
                size_bytes=components[path].presentation_size(value),
            )
            for (path, value), score in ranked
        ]
