"""The document's component index against a reference tree walk.

The reference functions below are the walks ``MultimediaDocument`` ran on
every call before the index existed: a fresh ``{node.path: node}`` dict
per query, recursive ``path`` lookups and a subtree walk per hidden
composite. The index must give the same answers, in the same order, for
any tree, any outcome and any sequence of structural edits.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.document import (
    COMPOSITE_HIDDEN,
    CompositeMultimediaComponent,
    DocumentBuilder,
    Hidden,
    Icon,
    JPGImage,
    PrimitiveMultimediaComponent,
    Text,
    build_sample_medical_record,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        yield registry


def index_builds(registry) -> float:
    counter = registry.counters.get("document.index_builds")
    return counter.value if counter is not None else 0


# ----- reference walks ---------------------------------------------------------------


def reference_components(doc):
    root = doc.get_content()
    return {node.path: node for node in root.iter_tree() if node is not root}


def reference_hidden_value(node):
    if isinstance(node, CompositeMultimediaComponent):
        return COMPOSITE_HIDDEN
    if COMPOSITE_HIDDEN in node.domain:
        return COMPOSITE_HIDDEN
    return None


def reference_enforce_subtree_hiding(doc, outcome):
    for path, node in reference_components(doc).items():
        if isinstance(node, CompositeMultimediaComponent):
            if outcome.get(path) == COMPOSITE_HIDDEN:
                for descendant in node.iter_tree():
                    if descendant is node:
                        continue
                    hidden = reference_hidden_value(descendant)
                    if hidden is not None:
                        outcome[descendant.path] = hidden
    return outcome


def reference_presentation_bytes(doc, outcome):
    total = 0
    for path, node in reference_components(doc).items():
        if path in outcome:
            total += node.presentation_size(outcome[path])
    return total


def reference_visible_components(doc, outcome):
    visible = []
    for path, node in reference_components(doc).items():
        value = outcome.get(path)
        if value is None or value == COMPOSITE_HIDDEN:
            continue
        if isinstance(node, PrimitiveMultimediaComponent):
            if node.presentation(value).is_hidden:
                continue
        visible.append(path)
    return tuple(visible)


def assert_matches_reference(doc, outcome):
    reference = reference_components(doc)
    assert list(doc.components().items()) == list(reference.items())
    assert doc.component_paths() == tuple(reference)
    assert list(doc.component_index().items) == list(reference.items())
    # Hiding rewrites the outcome in place and may append keys: compare
    # the resulting item order, not just the mapping.
    hidden = doc._enforce_subtree_hiding(dict(outcome))
    expected = reference_enforce_subtree_hiding(doc, dict(outcome))
    assert list(hidden.items()) == list(expected.items())
    assert doc.visible_components(hidden) == reference_visible_components(doc, hidden)
    assert doc.presentation_bytes(hidden) == reference_presentation_bytes(doc, hidden)


def nested_doc():
    """Two levels of composites, each with a hideable and an unhideable leaf."""
    return (
        DocumentBuilder("nested")
        .composite("a")
        .primitive("a.keep", [Text("full", 40), Text("brief", 4)])
        .composite("a.b")
        .primitive("a.b.img", [JPGImage("flat", 900), Icon("icon", 30), Hidden()])
        .composite("a.b.c")
        .primitive("a.b.c.note", [Text("full", 70), Hidden()])
        .primitive("a.tail", [Text("full", 50), Hidden()])
        .primitive("top", [Text("full", 10), Hidden()])
        .build()
    )


# ----- fixed cases -------------------------------------------------------------------


class TestAgainstReference:
    def test_fresh_document(self):
        doc = build_sample_medical_record()
        assert_matches_reference(doc, doc.default_presentation())

    def test_nested_hidden_composites(self):
        doc = nested_doc()
        outcomes = [
            {"a": "hidden", "a.b": "shown", "a.b.c": "shown"},
            {"a": "shown", "a.b": "hidden", "a.b.img": "flat", "a.tail": "full"},
            {"a.b.c": "hidden", "a.b": "hidden"},  # inner listed first
            {"a": "hidden", "top": "full", "a.keep": "brief"},
        ]
        for outcome in outcomes:
            assert_matches_reference(doc, outcome)
        hidden = doc._enforce_subtree_hiding({"a": "hidden"})
        assert hidden == {
            "a": "hidden",
            "a.b": "hidden",
            "a.b.img": "hidden",
            "a.b.c": "hidden",
            "a.b.c.note": "hidden",
            "a.tail": "hidden",
        }  # a.keep has no hidden value and is left alone

    def test_document_add_and_remove_component(self, fresh_registry):
        doc = build_sample_medical_record()
        doc.component_index()
        builds = index_builds(fresh_registry)
        doc.add_component("imaging", PrimitiveMultimediaComponent(
            "mri", [JPGImage("flat", 2048), Hidden()]
        ))
        assert "imaging.mri" in doc.components()
        assert_matches_reference(doc, doc.default_presentation())
        assert index_builds(fresh_registry) == builds + 1
        doc.remove_component("imaging.mri")
        assert "imaging.mri" not in doc.components()
        assert_matches_reference(doc, doc.default_presentation())
        assert index_builds(fresh_registry) == builds + 2

    def test_direct_edits_on_a_nested_composite_invalidate(self):
        doc = nested_doc()
        before = doc.component_index()
        inner = doc.component("a.b.c")
        inner.add(PrimitiveMultimediaComponent("extra", [Text("full", 5), Hidden()]))
        assert doc.component_index() is not before
        assert "a.b.c.extra" in doc.components()
        assert_matches_reference(doc, {"a.b": "hidden"})
        grafted = CompositeMultimediaComponent("graft")
        grafted.add(PrimitiveMultimediaComponent("leaf", [Text("full", 9), Hidden()]))
        doc.component("a").add(grafted)  # a whole subtree attached at once
        assert_matches_reference(doc, {"a": "shown", "a.graft": "hidden"})
        inner.remove("extra")
        doc.component("a.b").remove("c")
        assert "a.b.c" not in doc.components()
        assert "a.b.c.note" not in doc.component_paths()
        assert_matches_reference(doc, {"a": "hidden"})

    def test_edits_to_a_detached_subtree_reach_the_index_on_reattach(self):
        doc = nested_doc()
        branch = doc.component("a").remove("b")
        doc.component_index()
        branch.add(PrimitiveMultimediaComponent("late", [Text("full", 3), Hidden()]))
        doc.component("a").add(branch)
        assert "a.b.late" in doc.components()
        assert_matches_reference(doc, {"a.b": "hidden"})

    def test_mutating_the_returned_dict_leaves_the_index_intact(self):
        doc = nested_doc()
        expected = reference_components(doc)
        components = doc.components()
        components.clear()
        components["bogus"] = doc.component("top")
        assert doc.components() == expected
        assert "bogus" not in doc.component_paths()
        with pytest.raises(TypeError):
            doc.component_index().nodes["bogus"] = doc.component("top")
        assert_matches_reference(doc, {"a": "hidden"})

    def test_queries_do_not_rebuild(self, fresh_registry):
        doc = build_sample_medical_record()
        builds = index_builds(fresh_registry)
        for _ in range(5):
            outcome = doc.default_presentation()
            doc.visible_components(outcome)
            doc.presentation_bytes(outcome)
            doc.components()
            doc.component_paths()
        assert index_builds(fresh_registry) == builds

    def test_builds_show_on_the_dashboard(self, fresh_registry):
        build_sample_medical_record()
        panel = obs.render_dashboard(fresh_registry.snapshot())
        assert "document.index_builds" in panel


# ----- property ----------------------------------------------------------------------

PRIMITIVE_KINDS = (
    lambda size: [Text("full", size), Hidden()],
    lambda size: [JPGImage("flat", size * 8), Icon("icon", 16), Hidden()],
    lambda size: [Text("full", size), Text("brief", 1)],  # cannot be hidden
)


@st.composite
def trees(draw):
    """A builder-made document of up to 14 components, nested up to depth 4."""
    builder = DocumentBuilder("prop")
    composites: list[str] = [""]
    count = draw(st.integers(1, 14))
    for index in range(count):
        parent = draw(st.sampled_from(composites))
        path = f"{parent}.n{index}" if parent else f"n{index}"
        if path.count(".") < 3 and draw(st.booleans()):
            builder.composite(path)
            composites.append(path)
        else:
            kind = draw(st.sampled_from(PRIMITIVE_KINDS))
            builder.primitive(path, kind(draw(st.integers(0, 500))))
    return builder.build(validate=False)


@st.composite
def edited_trees_and_outcomes(draw):
    doc = draw(trees())
    doc.component_index()  # built before the edits, so they must invalidate it
    for step in range(draw(st.integers(0, 4))):
        paths = doc.component_paths()
        if paths and draw(st.booleans()):
            node = doc.component(draw(st.sampled_from(paths)))
            node.parent.remove(node.name)
        else:
            holders = [doc.get_content()] + [
                node for node in doc.components().values()
                if isinstance(node, CompositeMultimediaComponent)
            ]
            holder = draw(st.sampled_from(holders))
            holder.add(PrimitiveMultimediaComponent(
                f"e{step}", [Text("full", draw(st.integers(0, 50))), Hidden()]
            ))
    outcome = {}
    for path, node in reference_components(doc).items():
        if draw(st.integers(0, 4)) == 0:
            continue  # some paths absent from the outcome
        outcome[path] = draw(st.sampled_from(node.domain))
    # The engine hands the hiding pass outcomes in CP-net order, not
    # tree order: shuffle to cover insertion orders other than pre-order.
    items = draw(st.permutations(list(outcome.items())))
    return doc, dict(items)


@given(edited_trees_and_outcomes())
@settings(max_examples=150, deadline=None)
def test_index_matches_reference_walk(case):
    doc, outcome = case
    assert_matches_reference(doc, outcome)
    assert doc.visible_components(outcome) == reference_visible_components(doc, outcome)
    assert doc.presentation_bytes(outcome) == reference_presentation_bytes(doc, outcome)
