"""Schedule loading, validation, effective rates and removal counterfactuals."""

import dataclasses
import json
import os

import pytest

from ivasim.rates import Rate, RateBasis
from ivasim.schedule import (
    _KIND_PARAMS,
    CashbackClass,
    Category,
    Schedule,
    ScheduleError,
    TaxTreatment,
    TreatmentKind,
    bundled_schedule_path,
    default_removal_selectors,
    effective_inside_rate,
    load_schedule,
    parse_schedule,
    resolve_selector,
    save_schedule,
    with_removal,
)

T_REF = Rate.outside(0.379)


@pytest.fixture(scope="module")
def plp68():
    return load_schedule(bundled_schedule_path("plp68"))


def minimal_raw(**overrides):
    """A small valid schedule dict for mutation tests."""
    raw = {
        "categories": [
            {
                "id": "alimentos",
                "label": "Alimentos",
                "treatment": {"kind": "zero_rate"},
                "cashback_class": "standard",
                "in_denominator": True,
                "baseline_effective": 0.08,
            },
            {
                "id": "geral",
                "label": "Geral",
                "treatment": {"kind": "reference_rate"},
                "cashback_class": "standard",
                "in_denominator": True,
                "baseline_effective": 0.22,
            },
        ],
        "eligibility_threshold": 477.0,
    }
    raw.update(overrides)
    return raw


# -- fixture shape -----------------------------------------------------------


def test_bundled_fixture_loads(plp68):
    assert len(plp68.categories) == 20
    assert plp68.eligibility_threshold == 477.0
    assert plp68.target_net_burden == 0.201
    assert plp68.utility_refund_share == 0.466
    assert plp68.standard_refund_share == 0.20


def test_fixture_has_eight_taxed_groups(plp68):
    # the taxed treatment groups mirror the eight rows of the budget-share
    # table; the untaxed group only pads the shares to 100
    taxed = [
        g
        for g in plp68.groups()
        if any(
            c.group == g and c.treatment.kind is not TreatmentKind.UNTAXED
            for c in plp68.categories
        )
    ]
    assert len(taxed) == 8
    assert "nao_tributado" in plp68.groups()


def test_selective_categories_are_cashback_excluded(plp68):
    for c in plp68.categories:
        if c.treatment.kind is TreatmentKind.SELECTIVE:
            assert c.cashback is CashbackClass.EXCLUDED


def test_untaxed_category_stays_in_denominator(plp68):
    dom = plp68.by_id("servicos_domesticos")
    assert dom.treatment.kind is TreatmentKind.UNTAXED
    assert dom.in_denominator is True


def test_outside_basis_baseline_normalized(plp68):
    # config gives 51% outside; stored inside: 0.51/1.51
    util = plp68.by_id("utilidades_residenciais")
    assert util.baseline_effective.basis is RateBasis.INSIDE
    assert util.baseline_effective.value == pytest.approx(0.33774834437086093, abs=1e-15)


# -- effective rates ---------------------------------------------------------


def test_effective_rate_reference(plp68):
    r = effective_inside_rate(plp68.by_id("referencia_geral"), T_REF)
    assert r.basis is RateBasis.INSIDE
    # 0.379/1.379 = 0.27483683828861494; matches the 27.5% <-> 37.9% pair
    # to the 0.1 p.p. precision those quotes are reported at
    assert r.value == pytest.approx(0.27483683828861494, abs=1e-15)
    assert abs(r.value - 0.275) < 1e-3


def test_effective_rate_zero_and_untaxed(plp68):
    assert effective_inside_rate(plp68.by_id("cesta_basica"), T_REF).value == 0.0
    assert effective_inside_rate(plp68.by_id("servicos_domesticos"), T_REF).value == 0.0
    assert effective_inside_rate(plp68.by_id("cesta_basica"), Rate.outside(2.0)).value == 0.0


def test_effective_rate_reduced_fraction(plp68):
    # 0.4 * 0.379 = 0.1516 outside -> 0.1516/1.1516 inside
    r = effective_inside_rate(plp68.by_id("reduzida_40"), T_REF)
    assert r.value == pytest.approx(0.13164293157346302, abs=1e-15)


def test_effective_rate_specific_regime_ignores_t_ref(plp68):
    c = plp68.by_id("bares_restaurantes")
    assert effective_inside_rate(c, T_REF).value == 0.14
    assert effective_inside_rate(c, Rate.outside(1.0)).value == 0.14


def test_effective_rate_selective(plp68):
    # (1.19)(1.379) - 1 = 0.64101 outside -> 0.64101/1.64101 inside
    r = effective_inside_rate(plp68.by_id("bebidas_alcoolicas"), T_REF)
    assert r.value == pytest.approx(0.39061919183917215, abs=1e-15)


def test_effective_rate_rent_rate_part(plp68):
    # rate part matches the 40% reduced fraction; the base reducer is
    # applied elsewhere
    r = effective_inside_rate(plp68.by_id("aluguel_imovel"), T_REF)
    assert r.value == pytest.approx(0.13164293157346302, abs=1e-15)


def test_effective_rate_monotone_in_t_ref(plp68):
    rates = [Rate.outside(x / 100.0) for x in range(0, 101, 5)]
    for c in plp68.categories:
        values = [effective_inside_rate(c, t).value for t in rates]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:])), c.id


def test_effective_rate_requires_outside_t_ref(plp68):
    with pytest.raises(ValueError, match="outside"):
        effective_inside_rate(plp68.by_id("referencia_geral"), Rate.inside(0.275))


def test_selective_vat_fraction_scales_vat_component():
    t = TaxTreatment(TreatmentKind.SELECTIVE, is_rate=Rate.outside(0.19), vat_fraction=0.5)
    c = Category(
        id="teste",
        label="Teste",
        treatment=t,
        cashback=CashbackClass.EXCLUDED,
        in_denominator=True,
        baseline_effective=Rate.inside(0.3),
    )
    # (1.19)(1 + 0.5*0.379) - 1 = 0.4154505 outside
    got = effective_inside_rate(c, T_REF)
    expected_outside = 1.19 * (1.0 + 0.5 * 0.379) - 1.0
    assert got.value == pytest.approx(expected_outside / (1.0 + expected_outside), abs=1e-15)


# -- removal counterfactuals -------------------------------------------------


def test_removal_by_group(plp68):
    out = with_removal(plp68, "cesta_basica")
    assert out.by_id("cesta_basica").treatment.kind is TreatmentKind.REFERENCE_RATE
    # everything else untouched
    assert out.by_id("reduzida_40") == plp68.by_id("reduzida_40")
    assert out.category_ids() == plp68.category_ids()


def test_removal_strips_selective_component(plp68):
    out = with_removal(plp68, "imposto_seletivo")
    for cid in ("bebidas_alcoolicas", "produtos_fumigenos", "veiculos_embarcacoes"):
        c = out.by_id(cid)
        assert c.treatment.kind is TreatmentKind.REFERENCE_RATE
        # cashback class and denominator flag preserved
        assert c.cashback is CashbackClass.EXCLUDED
        assert c.in_denominator is True


def test_removal_by_kind_token(plp68):
    by_kind = with_removal(plp68, "selective")
    by_group = with_removal(plp68, "imposto_seletivo")
    assert by_kind == by_group


def test_removal_by_category_ids_comma_list(plp68):
    out = with_removal(plp68, "gasolina, refino_etanol")
    assert out.by_id("gasolina").treatment.kind is TreatmentKind.REFERENCE_RATE
    assert out.by_id("refino_etanol").treatment.kind is TreatmentKind.REFERENCE_RATE
    assert out.by_id("servicos_financeiros").treatment.kind is TreatmentKind.SPECIFIC_REGIME


def test_removal_unknown_selector_lists_valid_ones(plp68):
    with pytest.raises(ScheduleError, match="valid selectors"):
        with_removal(plp68, "no_such_group")


def test_removal_empty_selector_errors(plp68):
    with pytest.raises(ScheduleError, match="empty removal selector"):
        with_removal(plp68, "")
    with pytest.raises(ScheduleError, match="empty"):
        with_removal(plp68, "cesta_basica,,aluguel")


def test_resolve_selector_deduplicates(plp68):
    ids = resolve_selector(plp68, "gasolina,regime_especifico")
    assert ids.count("gasolina") == 1
    assert set(ids) == {c.id for c in plp68.categories if c.group == "regime_especifico"}


def test_default_removal_selectors(plp68):
    assert default_removal_selectors(plp68) == (
        "cesta_basica",
        "aliquota_zero",
        "reduzida_40",
        "reduzida_70",
        "aluguel",
        "regime_especifico",
        "imposto_seletivo",
    )


# -- serialization and fingerprint ------------------------------------------


def test_round_trip(plp68, tmp_path):
    path = tmp_path / "copy.json"
    save_schedule(plp68, path)
    again = load_schedule(path)
    assert again == plp68
    assert again.fingerprint() == plp68.fingerprint()


def test_parse_to_dict_round_trip(plp68):
    assert parse_schedule(plp68.to_dict()) == plp68


def test_fingerprint_tracks_content(plp68):
    changed = with_removal(plp68, "cesta_basica")
    assert changed.fingerprint() != plp68.fingerprint()
    assert plp68.fingerprint() == load_schedule(bundled_schedule_path("plp68")).fingerprint()


# -- validation errors -------------------------------------------------------


def test_missing_file_errors():
    with pytest.raises(ScheduleError, match="not found"):
        load_schedule("/no/such/schedule.json")


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "categories": [\n    {"id": }\n  ]\n}\n')
    with pytest.raises(ScheduleError, match=r"line 3"):
        load_schedule(p)


def test_duplicate_category_id():
    raw = minimal_raw()
    raw["categories"].append(dict(raw["categories"][0]))
    with pytest.raises(ScheduleError, match="duplicate category id"):
        parse_schedule(raw)


def test_selective_with_standard_cashback_rejected():
    raw = minimal_raw()
    raw["categories"].append(
        {
            "id": "fumo",
            "label": "Fumo",
            "treatment": {"kind": "selective", "is_rate": {"value": 0.19, "basis": "outside"}},
            "cashback_class": "standard",
            "in_denominator": True,
            "baseline_effective": 0.39,
        }
    )
    with pytest.raises(ScheduleError, match="excluded"):
        parse_schedule(raw)


def test_schedule_without_reference_anchor_rejected():
    raw = minimal_raw()
    raw["categories"] = [raw["categories"][0]]  # zero_rate only
    with pytest.raises(ScheduleError, match="unidentified"):
        parse_schedule(raw)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScheduleError, match="unknown key"):
        parse_schedule(minimal_raw(extra_knob=1))


def test_unknown_category_key_rejected():
    raw = minimal_raw()
    raw["categories"][0]["colour"] = "blue"
    with pytest.raises(ScheduleError, match="colour"):
        parse_schedule(raw)


def test_unknown_treatment_kind_and_params_rejected():
    raw = minimal_raw()
    raw["categories"][1]["treatment"] = {"kind": "flat_tax"}
    with pytest.raises(ScheduleError, match="flat_tax"):
        parse_schedule(raw)
    raw = minimal_raw()
    raw["categories"][1]["treatment"] = {"kind": "reference_rate", "fraction": 0.4}
    with pytest.raises(ScheduleError, match="fraction"):
        parse_schedule(raw)


def test_missing_required_category_key():
    raw = minimal_raw()
    del raw["categories"][0]["baseline_effective"]
    with pytest.raises(ScheduleError, match="baseline_effective"):
        parse_schedule(raw)


def test_bad_cashback_class_token():
    raw = minimal_raw()
    raw["categories"][0]["cashback_class"] = "enhanced"
    with pytest.raises(ScheduleError, match="cashback_class"):
        parse_schedule(raw)


def test_reduced_fraction_bounds():
    raw = minimal_raw()
    raw["categories"][0]["treatment"] = {"kind": "reduced_fraction", "fraction": 1.0}
    with pytest.raises(ScheduleError, match=r"\(0, 1\)"):
        parse_schedule(raw)


def test_rent_regime_parameter_bounds():
    raw = minimal_raw()
    raw["categories"][0]["treatment"] = {"kind": "rent_regime", "fraction": 0.4, "reducer": -5}
    with pytest.raises(ScheduleError, match="reducer"):
        parse_schedule(raw)


def test_refund_share_bounds():
    with pytest.raises(ScheduleError, match="utility_refund_share"):
        parse_schedule(minimal_raw(cashback={"utility_refund_share": 1.2}))


def test_negative_threshold_rejected():
    with pytest.raises(ScheduleError, match="eligibility_threshold"):
        parse_schedule(minimal_raw(eligibility_threshold=-1))


def test_target_burden_bounds():
    with pytest.raises(ScheduleError, match="target_net_burden"):
        parse_schedule(minimal_raw(target_net_burden=0.0))


def test_bad_category_id_token():
    raw = minimal_raw()
    raw["categories"][0]["id"] = "Cesta Básica"
    with pytest.raises(ScheduleError, match="token"):
        parse_schedule(raw)


def test_baseline_effective_accepts_number_or_object():
    raw = minimal_raw()
    raw["categories"][0]["baseline_effective"] = {"value": 0.51, "basis": "outside"}
    s = parse_schedule(raw)
    assert s.by_id("alimentos").baseline_effective.value == pytest.approx(
        0.33774834437086093, abs=1e-15
    )


def test_default_group_derived_from_kind():
    raw = minimal_raw()
    s = parse_schedule(raw)
    assert s.by_id("alimentos").group == "aliquota_zero"
    assert s.by_id("geral").group == "referencia"


def test_bundled_path_unknown_name():
    with pytest.raises(ScheduleError, match="bundled"):
        bundled_schedule_path("missing")


def test_bundled_path_refuses_path_like_names(tmp_path):
    # a schedule outside the package data must not resolve by name, even when it exists
    (tmp_path / "evil.json").write_text(bundled_schedule_path("uniform").read_text())
    relative = os.path.relpath(tmp_path / "evil", bundled_schedule_path("uniform").parent)
    for name in (str(tmp_path / "evil"), str(tmp_path / "evil.json"), relative, relative + ".json"):
        with pytest.raises(ScheduleError) as excinfo:
            bundled_schedule_path(name)
        assert str(excinfo.value) == f"no bundled schedule named {name!r}"


def test_fixture_json_is_strict_subset():
    # the shipped file exercises every treatment kind
    raw = json.loads(bundled_schedule_path("plp68").read_text())
    kinds = {c["treatment"]["kind"] for c in raw["categories"]}
    assert kinds == {
        "zero_rate",
        "reference_rate",
        "reduced_fraction",
        "specific_regime",
        "selective",
        "rent_regime",
        "untaxed",
    }


# -- the per-kind parameter table ----------------------------------------------

# One category per treatment kind, plus a second specific_regime and selective
# category: bare-number rates on the default basis, rate objects on the other
# basis, an omitted vat_fraction and an integer reducer and threshold.
ALL_KINDS = {
    "name": "all_kinds",
    "categories": [
        {"id": "alimentos", "label": "Alimentos", "treatment": {"kind": "zero_rate"},
         "cashback_class": "standard", "in_denominator": True, "baseline_effective": 0.08},
        {"id": "geral", "label": "Geral", "treatment": {"kind": "reference_rate"},
         "cashback_class": "standard", "in_denominator": True,
         "baseline_effective": {"value": 0.25, "basis": "outside"}},
        {"id": "saude", "label": "Saúde",
         "treatment": {"kind": "reduced_fraction", "fraction": 0.4},
         "cashback_class": "standard", "in_denominator": True, "baseline_effective": 0.1},
        {"id": "combustivel", "label": "Combustível",
         "treatment": {"kind": "specific_regime", "effective": {"value": 0.5, "basis": "outside"}},
         "cashback_class": "excluded", "in_denominator": True, "baseline_effective": 0.3},
        {"id": "servicos_financeiros", "label": "Serviços financeiros", "group": "financeiro",
         "treatment": {"kind": "specific_regime", "effective": 0.18},
         "cashback_class": "standard", "in_denominator": True, "baseline_effective": 0.1},
        {"id": "bebidas", "label": "Bebidas",
         "treatment": {"kind": "selective", "is_rate": 0.19},
         "cashback_class": "excluded", "in_denominator": True, "baseline_effective": 0.3},
        {"id": "fumo", "label": "Fumo", "group": "imposto_seletivo",
         "treatment": {"kind": "selective", "is_rate": {"value": 0.2, "basis": "inside"},
                       "vat_fraction": 0.5},
         "cashback_class": "excluded", "in_denominator": True, "baseline_effective": 0.4},
        {"id": "aluguel", "label": "Aluguel",
         "treatment": {"kind": "rent_regime", "fraction": 0.4, "reducer": 400},
         "cashback_class": "utility_enhanced", "in_denominator": True, "baseline_effective": 0.0},
        {"id": "doacoes", "label": "Doações", "treatment": {"kind": "untaxed"},
         "cashback_class": "excluded", "in_denominator": False, "baseline_effective": 0.0},
    ],
    "eligibility_threshold": 477,
}


def _canonical(cid, label, group, treatment, cashback, in_den, baseline):
    return {"id": cid, "label": label, "group": group, "treatment": treatment,
            "cashback_class": cashback, "in_denominator": in_den,
            "baseline_effective": {"value": baseline, "basis": "inside"}}


# ALL_KINDS in canonical form: defaults filled in, rate parameters on their
# stored basis, numbers as floats, keys in writing order
ALL_KINDS_CANONICAL = {
    "name": "all_kinds",
    "categories": [
        _canonical("alimentos", "Alimentos", "aliquota_zero", {"kind": "zero_rate"},
                   "standard", True, 0.08),
        _canonical("geral", "Geral", "referencia", {"kind": "reference_rate"},
                   "standard", True, 0.2),
        _canonical("saude", "Saúde", "reduzida_40",
                   {"kind": "reduced_fraction", "fraction": 0.4}, "standard", True, 0.1),
        _canonical("combustivel", "Combustível", "regime_especifico",
                   {"kind": "specific_regime",
                    "effective": {"value": 0.3333333333333333, "basis": "inside"}},
                   "excluded", True, 0.3),
        _canonical("servicos_financeiros", "Serviços financeiros", "financeiro",
                   {"kind": "specific_regime", "effective": {"value": 0.18, "basis": "inside"}},
                   "standard", True, 0.1),
        _canonical("bebidas", "Bebidas", "imposto_seletivo",
                   {"kind": "selective", "is_rate": {"value": 0.19, "basis": "outside"},
                    "vat_fraction": 1.0},
                   "excluded", True, 0.3),
        _canonical("fumo", "Fumo", "imposto_seletivo",
                   {"kind": "selective", "is_rate": {"value": 0.25, "basis": "outside"},
                    "vat_fraction": 0.5},
                   "excluded", True, 0.4),
        _canonical("aluguel", "Aluguel", "aluguel",
                   {"kind": "rent_regime", "fraction": 0.4, "reducer": 400.0},
                   "utility_enhanced", True, 0.0),
        _canonical("doacoes", "Doações", "nao_tributado", {"kind": "untaxed"},
                   "excluded", False, 0.0),
    ],
    "cashback": {"utility_refund_share": 0.466, "standard_refund_share": 0.2},
    "eligibility_threshold": 477.0,
    "target_net_burden": 0.201,
}


def test_all_kinds_to_dict_matches_canonical_literal():
    s = parse_schedule(ALL_KINDS)
    assert {c.treatment.kind for c in s.categories} == set(TreatmentKind)
    d = s.to_dict()
    assert d == ALL_KINDS_CANONICAL
    # == does not tell 400 from 400.0, nor key order; the serialised text does
    assert json.dumps(d) == json.dumps(ALL_KINDS_CANONICAL)
    assert s.fingerprint() == "8913f8f9f41b7f4d416b395343f16147e8184c39b1b71f2f789070a09066006f"


def test_all_kinds_round_trips(tmp_path):
    s = parse_schedule(ALL_KINDS)
    assert parse_schedule(s.to_dict()) == s
    path = tmp_path / "all_kinds.json"
    save_schedule(s, path)
    assert load_schedule(path) == s


def test_rate_parameters_stored_on_their_basis():
    s = parse_schedule(ALL_KINDS)
    assert s.by_id("combustivel").treatment.effective == Rate.inside(0.5 / 1.5)
    assert s.by_id("fumo").treatment.is_rate == Rate.outside(0.2 / 0.8)
    # the constructor stores a rate given on either basis as the parser does
    assert TaxTreatment(
        TreatmentKind.SPECIFIC_REGIME, effective=Rate.outside(0.5)
    ) == s.by_id("combustivel").treatment
    assert TaxTreatment(
        TreatmentKind.SELECTIVE, is_rate=Rate.inside(0.2), vat_fraction=0.5
    ) == s.by_id("fumo").treatment


def test_bundled_fingerprints_pinned():
    # a fingerprint seeds the synthetic draws, so drift would move every table
    assert load_schedule(bundled_schedule_path("plp68")).fingerprint() == (
        "b0558844a0b0a0bf36bd8fafe936a50ffceaa6dfaf18d7cf6305a2a63bda972f"
    )
    assert load_schedule(bundled_schedule_path("uniform")).fingerprint() == (
        "1556b21ccfe0d1343af3eda0e96f6f137d0cdaecb89ad18027e63c23c519ab06"
    )


@pytest.mark.parametrize("kind", [["x"], {"a": 1}, 7, None])
def test_unhashable_or_non_string_kind_is_unknown(kind):
    raw = minimal_raw()
    raw["categories"][1]["treatment"] = {"kind": kind}
    with pytest.raises(ScheduleError, match="unknown treatment kind"):
        parse_schedule(raw)


def test_treatment_kind_missing_parameter_names_it():
    raw = minimal_raw()
    raw["categories"][1]["treatment"] = {"kind": "rent_regime", "fraction": 0.4}
    with pytest.raises(ScheduleError, match="missing required key 'reducer'"):
        parse_schedule(raw)


def test_treatment_constructor_checks_parameters_against_kind():
    with pytest.raises(ScheduleError, match="requires parameter 'reducer'"):
        TaxTreatment(TreatmentKind.RENT_REGIME, fraction=0.4)
    with pytest.raises(ScheduleError, match="does not take parameter 'fraction'"):
        TaxTreatment(TreatmentKind.ZERO_RATE, fraction=0.4)


# one valid value of each parameter, whichever kind takes it
_VALID_PARAMS = {"fraction": 0.4, "effective": Rate.inside(0.3), "is_rate": Rate.outside(0.19),
                 "vat_fraction": 1.0, "reducer": 400.0}


def test_valid_params_cover_every_treatment_field():
    assert list(_VALID_PARAMS) == [f.name for f in dataclasses.fields(TaxTreatment)][1:]


@pytest.mark.parametrize("kind", list(TreatmentKind), ids=lambda k: k.value)
def test_constructor_takes_exactly_the_kind_params(kind):
    given = {name: _VALID_PARAMS[name] for name in _KIND_PARAMS[kind]}
    t = TaxTreatment(kind, **given)
    assert {name: getattr(t, name) for name in given} == given
    for name in given:
        with pytest.raises(ScheduleError) as excinfo:
            TaxTreatment(kind, **{n: v for n, v in given.items() if n != name})
        assert str(excinfo.value) == f"treatment {kind.value!r} requires parameter {name!r}"
    for name in _VALID_PARAMS.keys() - given.keys():
        with pytest.raises(ScheduleError) as excinfo:
            TaxTreatment(kind, **given, **{name: _VALID_PARAMS[name]})
        assert str(excinfo.value) == f"treatment {kind.value!r} does not take parameter {name!r}"


# -- NaN in numeric fields ---------------------------------------------------------

NAN = float("nan")
INF = float("inf")


def _with_treatment(treatment):
    raw = minimal_raw()
    raw["categories"][0]["treatment"] = treatment
    if treatment["kind"] == "selective":
        raw["categories"][0]["cashback_class"] = "excluded"
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (minimal_raw(eligibility_threshold=NAN), "eligibility_threshold must be >= 0, got nan"),
        (_with_treatment({"kind": "rent_regime", "fraction": 0.4, "reducer": NAN}),
         "category 'alimentos'.reducer: rent_regime reducer must be >= 0, got nan"),
        (_with_treatment({"kind": "selective", "is_rate": 0.19, "vat_fraction": NAN}),
         "category 'alimentos'.vat_fraction: selective vat_fraction must be >= 0, got nan"),
    ],
    ids=["eligibility_threshold", "reducer", "vat_fraction"],
)
def test_nan_parameter_rejected_by_parser(raw, message):
    with pytest.raises(ScheduleError, match=message):
        parse_schedule(raw)


def test_nan_parameter_rejected_by_constructors(plp68):
    with pytest.raises(ScheduleError, match="reducer"):
        TaxTreatment(TreatmentKind.RENT_REGIME, fraction=0.4, reducer=NAN)
    with pytest.raises(ScheduleError, match="vat_fraction"):
        TaxTreatment(TreatmentKind.SELECTIVE, is_rate=Rate.outside(0.19), vat_fraction=NAN)
    with pytest.raises(ScheduleError, match="eligibility_threshold"):
        Schedule(plp68.categories, eligibility_threshold=NAN)
    for inf in (INF, -INF):
        with pytest.raises(ScheduleError, match="reducer"):
            TaxTreatment(TreatmentKind.RENT_REGIME, fraction=0.4, reducer=inf)
        with pytest.raises(ScheduleError, match="vat_fraction"):
            TaxTreatment(TreatmentKind.SELECTIVE, is_rate=Rate.outside(0.19), vat_fraction=inf)
        with pytest.raises(ScheduleError, match="eligibility_threshold"):
            Schedule(plp68.categories, eligibility_threshold=inf)


def _with_baseline(baseline):
    raw = minimal_raw()
    raw["categories"][0]["baseline_effective"] = baseline
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (minimal_raw(eligibility_threshold=INF), "eligibility_threshold must be finite, got inf"),
        (minimal_raw(eligibility_threshold=-INF), "eligibility_threshold must be >= 0, got -inf"),
        (_with_treatment({"kind": "rent_regime", "fraction": 0.4, "reducer": INF}),
         "category 'alimentos'.reducer: rent_regime reducer must be finite, got inf"),
        (_with_treatment({"kind": "selective", "is_rate": 0.19, "vat_fraction": INF}),
         "category 'alimentos'.vat_fraction: selective vat_fraction must be finite, got inf"),
        (_with_treatment({"kind": "selective", "is_rate": INF}),
         "category 'alimentos'.is_rate: rate value must be finite, got inf"),
        (_with_baseline({"value": INF, "basis": "outside"}),
         "category 'alimentos'.baseline_effective: rate value must be finite, got inf"),
    ],
    ids=["eligibility_threshold", "eligibility_threshold_negative", "reducer", "vat_fraction",
         "is_rate", "baseline_effective"],
)
def test_infinite_parameter_rejected_by_parser(raw, message):
    with pytest.raises(ScheduleError, match=message):
        parse_schedule(json.loads(json.dumps(raw)))  # json reads and writes Infinity


_RATE_FIELDS = {
    "is_rate": lambda v: _with_treatment({"kind": "selective", "is_rate": v}),
    "effective": lambda v: _with_treatment({"kind": "specific_regime", "effective": v}),
    "baseline_effective": _with_baseline,
}
_BAD_RATES = {
    "inf": (INF, "rate value must be finite, got inf"),
    "negative": (-0.1, "rate value must be non-negative, got -0.1"),
    "nan": (NAN, "rate value must not be NaN"),
}
_INSIDE_AT_ONE = {
    "inside_one": (1.0, "inside rate must be < 1"),
    # finite on the outside basis, but its inside value rounds to 1
    "outside_huge": ({"value": 1e300, "basis": "outside"}, "inside rate must be < 1"),
}


@pytest.mark.parametrize("field, value, message", [
    pytest.param(field, value, message, id=f"{field}-{case}")
    for fields, cases in ((_RATE_FIELDS, _BAD_RATES),
                          (("effective", "baseline_effective"), _INSIDE_AT_ONE))
    for field in fields for case, (value, message) in cases.items()
])
def test_out_of_range_rate_names_its_field(field, value, message):
    raw = json.loads(json.dumps(_RATE_FIELDS[field](value)))  # as json reads NaN and Infinity
    with pytest.raises(ScheduleError) as excinfo:
        parse_schedule(raw)
    assert str(excinfo.value).startswith(f"category 'alimentos'.{field}: {message}")


@pytest.mark.parametrize("treatment, field, message, construct", [
    pytest.param({"kind": "reduced_fraction", "fraction": 1.0}, "fraction",
                 "reduced_fraction fraction must be in (0, 1), got 1.0",
                 lambda: TaxTreatment(TreatmentKind.REDUCED_FRACTION, fraction=1.0), id="reduced-fraction"),
    pytest.param({"kind": "rent_regime", "fraction": 1.5, "reducer": 400.0}, "fraction",
                 "rent_regime fraction must be in (0, 1], got 1.5",
                 lambda: TaxTreatment(TreatmentKind.RENT_REGIME, fraction=1.5, reducer=400.0), id="rent-fraction"),
    pytest.param({"kind": "rent_regime", "fraction": 0.4, "reducer": -1.0}, "reducer",
                 "rent_regime reducer must be >= 0, got -1.0",
                 lambda: TaxTreatment(TreatmentKind.RENT_REGIME, fraction=0.4, reducer=-1.0), id="rent-reducer"),
    pytest.param({"kind": "selective", "is_rate": 0.19, "vat_fraction": -0.5}, "vat_fraction",
                 "selective vat_fraction must be >= 0, got -0.5",
                 lambda: TaxTreatment(TreatmentKind.SELECTIVE, is_rate=Rate.outside(0.19),
                                      vat_fraction=-0.5),
                 id="selective-vat_fraction"),
])
def test_out_of_range_treatment_parameter_names_its_field(treatment, field, message, construct):
    with pytest.raises(ScheduleError) as excinfo:
        parse_schedule(_with_treatment(treatment))
    assert str(excinfo.value) == f"category 'alimentos'.{field}: {message}"
    # a directly constructed treatment keeps its own check, with no field path
    with pytest.raises(ScheduleError) as excinfo:
        construct()
    assert str(excinfo.value) == message
