"""CP-net-seeded default subscriptions (the paper's "relevant parts").

A viewer who never says what they want still has preferences: the CP-net
already computed their optimal presentation, and the components that
presentation actually displays *are* the relevant parts (§5.3). Seeding
a fresh session's interest from that set means updates to components the
viewer's preferences hide never cross their wire — until an explicit
SUBSCRIBE says otherwise.
"""

from __future__ import annotations

from typing import Mapping

from repro.document.component import PrimitiveMultimediaComponent
from repro.document.document import MultimediaDocument


def default_subscriptions(
    document: MultimediaDocument, outcome: Mapping[str, str]
) -> tuple[str, ...]:
    """Visible primitive components under *outcome*, sorted.

    Only primitives are seeded: the registry's prefix coverage keeps a
    subscriber of ``imaging0.item2`` informed about ``imaging0`` section
    visibility anyway, so seeding the sections too would widen interest
    to every sibling for free.
    """
    components = document.component_index().nodes
    return tuple(
        sorted(
            path
            for path in document.visible_components(outcome)
            if isinstance(components[path], PrimitiveMultimediaComponent)
        )
    )
