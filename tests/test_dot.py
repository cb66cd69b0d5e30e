"""DOT export: exact output, fixed-subcategory styling, determinism."""

import dataclasses

from catmn import (
    Category,
    Mor,
    build_total_category,
    canonical_c2,
    fixed_objects,
    render_dot,
    render_spec_dot,
    terminal_spec,
)
from helpers import orbit

ORBIT_DOT = """\
digraph "orbit" {
  rankdir=LR;
  "a";
  "b";
  "b" -> "b" [label="e"];
  "a" -> "b" [label="f"];
  "a" -> "b" [label="f2"];
}
"""


def test_plain_category_dot():
    assert render_dot(orbit()) == ORBIT_DOT


def test_identities_are_omitted():
    assert "id_a" not in render_dot(orbit())


def test_styling_attributes():
    text = render_dot(orbit(), double_ring=["b"], filled=["a", "b"])
    assert '  "a" [style=filled];' in text
    assert '  "b" [peripheries=2, style=filled];' in text


def test_graph_name_is_the_quoted_category_name():
    c = orbit()
    named = Category('or"bit\\', c.objects, c.morphisms.values(), c.identity, c.compose)
    text = render_dot(named)
    assert text.splitlines()[0] == 'digraph "or\\"bit\\\\" {'


def test_fixed_object_queries(c2_monad, c2_comonad):
    assert set(fixed_objects(c2_monad)) == {"b0|top0", "b1|top1"}
    assert set(fixed_objects(c2_comonad)) == {"b0|bot0", "b1|bot1"}


def test_spec_dot_styles_both_fixed_subcategories(c2_spec, c2_total):
    text = render_spec_dot(c2_spec)
    assert text == render_dot(
        c2_total.total,
        double_ring={"b0|top0", "b1|top1"},
        filled={"b0|bot0", "b1|bot1"},
    )
    assert text.splitlines()[0] == 'digraph "total(canonical_c2)" {'
    assert '  "b0|top0" [peripheries=2];' in text
    assert '  "b0|bot0" [style=filled];' in text
    assert '  "b0|mid0";' in text
    edges = [line for line in text.splitlines() if "->" in line]
    assert len(edges) == 9


def test_spec_dot_single_object_gets_both_styles():
    text = render_spec_dot(terminal_spec())
    assert '  "b0|k0" [peripheries=2, style=filled];' in text


def test_spec_dot_falls_back_when_a_builder_fails():
    # a non-bottom-preserving action leaves the fiber-bottom comonad with no
    # lift, so only the monad side gets styled
    s = canonical_c2()
    act = {"bot0": "top1", "mid0": "top1", "top0": "top1"}
    text = render_spec_dot(dataclasses.replace(s, actions={**s.actions, "f": act}))
    assert "peripheries=2" in text
    assert "style=filled" not in text


def test_dot_output_is_deterministic(c2_spec):
    first = render_spec_dot(c2_spec)
    second = render_spec_dot(c2_spec)
    third = render_spec_dot(c2_spec)
    assert first == second == third
    t = build_total_category(c2_spec)
    assert render_dot(t.total) == render_dot(t.total)


def test_awkward_names_and_identities():
    # names that need escaping, one holding a newline; an identity that is
    # no loop, which is drawn; a morphism ending at no object
    c = Category(
        'q"uote',
        ['a"', "b\\", "c\nd"],
        [
            Mor("id_a", 'a"', 'a"'),
            Mor("id_b", "b\\", "c\nd"),
            Mor("id_c", "c\nd", "c\nd"),
            Mor('f"\\', 'a"', "b\\"),
            Mor("g\nh", "c\nd", "nowhere"),
        ],
        {'a"': "id_a", "b\\": "id_b", "c\nd": "id_c"},
    )
    assert render_dot(c, double_ring=['a"'], filled=["c\nd"]) == (
        'digraph "q\\"uote" {\n'
        "  rankdir=LR;\n"
        '  "a\\"" [peripheries=2];\n'
        '  "b\\\\";\n'
        '  "c\nd" [style=filled];\n'
        '  "a\\"" -> "b\\\\" [label="f\\"\\\\"];\n'
        '  "c\nd" -> "nowhere" [label="g\nh"];\n'
        '  "b\\\\" -> "c\nd" [label="id_b"];\n'
        "}\n"
    )
