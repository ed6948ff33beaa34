"""Round trips of seeded symbolic automata through every textual format."""

from hyra.config import emit_config, parse_config
from hyra.flowstar import emit_flowstar
from hyra.interchange import read_json, write_json
from hyra.spaceex import emit_spaceex, parse_spaceex
from support import GENERATED_SEEDS, generated_bundle

BUNDLES = [generated_bundle(seed) for seed in GENERATED_SEEDS]


def _cfg(bundle) -> str:
    return emit_config(bundle.settings, bundle.initial, bundle.automaton.vars, bundle.automaton.name)


def test_generated_automata_put_constants_in_every_coefficient_kind():
    dynamics = [loc.dynamics for b in BUNDLES for loc in b.automaton.locations]
    resets = [tr.reset for b in BUNDLES for tr in b.automaton.transitions]
    conditions = ([loc.invariant for b in BUNDLES for loc in b.automaton.locations]
                  + [tr.guard for b in BUNDLES for tr in b.automaton.transitions]
                  + [b.settings.forbidden for b in BUNDLES if b.settings.forbidden is not None])
    constraints = [con for cond in conditions for con in cond.constraints]
    for kind in ("a_terms", "b_terms", "c_terms"):
        assert any(getattr(d, kind) for d in dynamics), kind
    assert any(r.matrix_terms for r in resets) and any(r.offset_terms for r in resets)
    assert any(r.is_identity for r in resets) and not all(r.is_identity for r in resets)
    assert any(c.coeff_terms for c in constraints) and any(c.bound_terms for c in constraints)
    assert {c.relation for c in constraints} == {"<=", "<", ">=", ">", "=="}
    assert all(b.automaton.vars.input_vars == ("u",) for b in BUNDLES)
    assert {b.automaton.vars.n for b in BUNDLES} == {1, 2, 3}
    assert any((b.initial.box.lo == b.initial.box.hi).any() for b in BUNDLES)


def test_generated_automata_round_trip_through_spaceex():
    for bundle in BUNDLES:
        text = emit_spaceex(bundle.automaton)
        again = parse_spaceex(text)
        assert again == bundle.automaton, bundle.automaton.name
        assert emit_spaceex(again) == text


def test_generated_settings_round_trip_through_cfg():
    for bundle in BUNDLES:
        text = _cfg(bundle)
        parsed = parse_config(text, bundle.automaton.vars)
        assert parsed.settings == bundle.settings, bundle.automaton.name
        assert parsed.initial == bundle.initial
        assert parsed.system == bundle.automaton.name
        assert emit_config(parsed.settings, parsed.initial, bundle.automaton.vars, parsed.system) == text


def test_generated_bundles_round_trip_through_json():
    for bundle in BUNDLES:
        text = write_json(bundle)
        again = read_json(text)
        assert again == bundle, bundle.automaton.name
        assert write_json(again) == text


def test_flowstar_emission_is_that_of_the_resolved_bundle():
    for bundle in BUNDLES:
        text = emit_flowstar(bundle)
        assert text == emit_flowstar(bundle.resolved), bundle.automaton.name
        body = text.split(" modes\n")[1]
        assert not {"g", "k"} & set(body.replace("*", " ").split())
