"""Declarative model of a consumption-tax policy.

A :class:`Schedule` lists the consumption categories with their tax
treatment, cashback class and pre-reform effective rate, plus the cashback
parameters and the net-burden target the reference rate is calibrated to.
Schedules are immutable after loading and safe to share across workers.

Config file format (JSON, strict: unknown keys are rejected)::

    {
      "name": "plp68",                      # optional
      "categories": [
        {
          "id": "cesta_basica",             # token: ^[a-z][a-z0-9_]*$
          "label": "Cesta básica de alimentos",
          "group": "cesta_basica",          # optional presentation/removal group
          "treatment": {"kind": "zero_rate"},
          "cashback_class": "standard",     # standard | utility_enhanced | excluded
          "in_denominator": true,
          "baseline_effective": 0.08        # pre-reform inside rate, or
                                            # {"value": 0.51, "basis": "outside"}
        },
        ...
      ],
      "cashback": {                         # optional, defaults below
        "utility_refund_share": 0.466,
        "standard_refund_share": 0.20
      },
      "eligibility_threshold": 477.0,       # income per capita, currency/month
      "target_net_burden": 0.201            # optional, default 0.201
    }

Treatment objects by kind::

    {"kind": "zero_rate"}
    {"kind": "reference_rate"}
    {"kind": "reduced_fraction", "fraction": 0.4}
    {"kind": "specific_regime", "effective": {"value": 0.33, "basis": "inside"}}
    {"kind": "selective", "is_rate": {"value": 0.19, "basis": "outside"},
     "vat_fraction": 1.0}                   # vat_fraction optional, default 1
    {"kind": "rent_regime", "fraction": 0.4, "reducer": 400.0}
    {"kind": "untaxed"}

The module-level ``_KIND_PARAMS`` table lists each kind's parameters and the
basis each rate parameter is stored on; validation, parsing and ``to_dict``
all read it.  ``inside_rate_function`` beside it holds each kind's rate rule,
the one place it is written: ``effective_inside_rate`` and the engine's
calculator both evaluate it.  Every numeric field rejects NaN and
+/-Infinity (both read by ``json``), and a value out of range names its
field, e.g. ``category 'gasolina'.is_rate`` or
``category 'aluguel_imovel'.fraction``.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable

from .rates import Rate, RateBasis, to_inside, to_outside


class ScheduleError(ValueError):
    """Raised on parse or validation failures in a schedule config."""


class TreatmentKind(enum.Enum):
    ZERO_RATE = "zero_rate"
    REFERENCE_RATE = "reference_rate"
    REDUCED_FRACTION = "reduced_fraction"
    SPECIFIC_REGIME = "specific_regime"
    SELECTIVE = "selective"
    RENT_REGIME = "rent_regime"
    UNTAXED = "untaxed"


class CashbackClass(enum.Enum):
    UTILITY_ENHANCED = "utility_enhanced"
    STANDARD = "standard"
    EXCLUDED = "excluded"


# Parameters of each treatment kind, in config order.  A rate parameter maps to
# the basis it is stored on, which is also the basis of a bare number in a
# config; a plain number maps to None.  This table drives TaxTreatment's
# checks, the parser and serialisation.
_KIND_PARAMS: dict[TreatmentKind, dict[str, RateBasis | None]] = {
    TreatmentKind.ZERO_RATE: {},
    TreatmentKind.REFERENCE_RATE: {},
    TreatmentKind.REDUCED_FRACTION: {"fraction": None},
    TreatmentKind.SPECIFIC_REGIME: {"effective": RateBasis.INSIDE},
    TreatmentKind.SELECTIVE: {"is_rate": RateBasis.OUTSIDE, "vat_fraction": None},
    TreatmentKind.RENT_REGIME: {"fraction": None, "reducer": None},
    TreatmentKind.UNTAXED: {},
}


def inside_rate_function(treatment: TaxTreatment) -> Callable[[float], float]:
    """Inside rate of a category with this treatment, as a function of the outside
    reference rate ``t`` (a float).

    Each kind's rule, with its constants read once: a reduced fraction (and
    the rent regime's rate part) is ``f * t`` on the outside basis, as
    statutory reductions apply to the legal rate; the Selective Tax is part of
    the VAT base, so its combined outside rate compounds,
    ``(1 + is_rate) * (1 + vat_fraction * t) - 1``; an outside rate ``o`` is
    ``o / (1 + o)`` inside.  The result is not range-checked;
    ``effective_inside_rate`` checks it.
    """
    k = treatment.kind
    if k in (TreatmentKind.ZERO_RATE, TreatmentKind.UNTAXED):
        return lambda t: 0.0
    if k is TreatmentKind.SPECIFIC_REGIME:
        effective = treatment.effective.value
        return lambda t: effective
    if k is TreatmentKind.REFERENCE_RATE:
        return lambda t: t / (1.0 + t)
    if k is TreatmentKind.REDUCED_FRACTION or k is TreatmentKind.RENT_REGIME:
        fraction = treatment.fraction

        def reduced(t: float) -> float:
            outside = fraction * t
            return outside / (1.0 + outside)

        return reduced
    if k is TreatmentKind.SELECTIVE:
        is_factor, vat_fraction = 1.0 + treatment.is_rate.value, treatment.vat_fraction

        def selective(t: float) -> float:
            combined = is_factor * (1.0 + vat_fraction * t) - 1.0
            return combined / (1.0 + combined)

        return selective
    raise AssertionError(f"unhandled treatment kind {k}")


# Default presentation/removal group per treatment kind, used when a category
# does not set "group" explicitly.
_DEFAULT_GROUP = {
    TreatmentKind.ZERO_RATE: "aliquota_zero",
    TreatmentKind.REFERENCE_RATE: "referencia",
    TreatmentKind.SPECIFIC_REGIME: "regime_especifico",
    TreatmentKind.SELECTIVE: "imposto_seletivo",
    TreatmentKind.RENT_REGIME: "aluguel",
    TreatmentKind.UNTAXED: "nao_tributado",
}


@dataclass(frozen=True)
class TaxTreatment:
    """Per-category policy rule: ``TaxTreatment(kind, **params)`` takes exactly the
    parameters ``_KIND_PARAMS`` lists for ``kind``."""

    kind: TreatmentKind
    fraction: float | None = None  # reduced_fraction, rent_regime
    effective: Rate | None = None  # specific_regime, stored on the inside basis
    is_rate: Rate | None = None  # selective, stored on the outside basis
    vat_fraction: float | None = None  # selective
    reducer: float | None = None  # rent_regime

    def __post_init__(self) -> None:
        k = self.kind
        params = _KIND_PARAMS[k]
        for field in fields(self)[1:]:  # the parameters, in declaration order
            name, value = field.name, getattr(self, field.name)
            if name in params and value is None:
                raise ScheduleError(f"treatment {k.value!r} requires parameter {name!r}")
            if name not in params and value is not None:
                raise ScheduleError(f"treatment {k.value!r} does not take parameter {name!r}")
            basis = params.get(name)
            if basis is not None:  # a rate parameter, kept on its stored basis
                stored = to_inside(value) if basis is RateBasis.INSIDE else to_outside(value)
                object.__setattr__(self, name, stored)
            elif name in params:
                _check_number_param(k, name, value)


@dataclass(frozen=True)
class Category:
    """One consumption category and the policy applied to it."""

    id: str
    label: str
    treatment: TaxTreatment
    cashback: CashbackClass
    in_denominator: bool
    baseline_effective: Rate  # pre-reform effective rate, inside basis
    group: str = ""

    def __post_init__(self) -> None:
        if not _is_token(self.id):
            raise ScheduleError(
                f"category id {self.id!r} is not a valid token (expected ^[a-z][a-z0-9_]*$)"
            )
        if self.baseline_effective.basis is not RateBasis.INSIDE:
            raise ScheduleError(f"category {self.id!r}: baseline_effective must be an inside rate")
        if not self.group:
            object.__setattr__(self, "group", _default_group(self.treatment))
        elif not _is_token(self.group):
            raise ScheduleError(f"category {self.id!r}: group {self.group!r} is not a valid token")


@dataclass(frozen=True)
class Schedule:
    """A full consumption-tax policy."""

    categories: tuple[Category, ...]
    utility_refund_share: float = 0.466
    standard_refund_share: float = 0.20
    eligibility_threshold: float = 0.0  # income per capita, currency/month
    target_net_burden: float = 0.201
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", tuple(self.categories))
        if not self.categories:
            raise ScheduleError("schedule must define at least one category")
        seen: set[str] = set()
        for c in self.categories:
            if c.id in seen:
                raise ScheduleError(f"duplicate category id {c.id!r}")
            seen.add(c.id)
        for c in self.categories:
            if c.treatment.kind is TreatmentKind.SELECTIVE and c.cashback is not CashbackClass.EXCLUDED:
                raise ScheduleError(
                    f"category {c.id!r}: selective-tax categories must have cashback_class "
                    f"'excluded' (IS goods do not generate cashback)"
                )
        if not any(
            c.treatment.kind in (TreatmentKind.REFERENCE_RATE, TreatmentKind.REDUCED_FRACTION)
            for c in self.categories
        ):
            raise ScheduleError(
                "schedule needs at least one reference_rate or reduced_fraction category, "
                "otherwise the reference rate is unidentified"
            )
        for share_name in ("utility_refund_share", "standard_refund_share"):
            share = getattr(self, share_name)
            if not 0.0 <= share <= 1.0:
                raise ScheduleError(f"{share_name} must be in [0, 1], got {share}")
        _check_nonnegative("eligibility_threshold", self.eligibility_threshold)
        if not 0.0 < self.target_net_burden < 1.0:
            raise ScheduleError(f"target_net_burden must be in (0, 1), got {self.target_net_burden}")

    # -- lookups -----------------------------------------------------------

    def category_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.categories)

    def by_id(self, category_id: str) -> Category:
        for c in self.categories:
            if c.id == category_id:
                return c
        raise KeyError(category_id)

    def groups(self) -> tuple[str, ...]:
        """Distinct group labels in schedule order."""
        out: list[str] = []
        for c in self.categories:
            if c.group not in out:
                out.append(c.group)
        return tuple(out)

    def refund_share(self, cashback_class: CashbackClass) -> float:
        if cashback_class is CashbackClass.UTILITY_ENHANCED:
            return self.utility_refund_share
        if cashback_class is CashbackClass.STANDARD:
            return self.standard_refund_share
        return 0.0

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical schema dict; ``parse_schedule(s.to_dict()) == s``."""
        out: dict[str, Any] = {
            "name": self.name,
            "categories": [_category_to_dict(c) for c in self.categories],
            "cashback": {
                "utility_refund_share": self.utility_refund_share,
                "standard_refund_share": self.standard_refund_share,
            },
            "eligibility_threshold": self.eligibility_threshold,
            "target_net_burden": self.target_net_burden,
        }
        return out

    def fingerprint(self) -> str:
        """Stable hex digest of the policy content."""
        import hashlib  # imported here: loading it maps OpenSSL, which most runs never use

        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- effective rates -------------------------------------------------------


def effective_inside_rate(category: Category, t_ref: Rate) -> Rate:
    """Inside rate applied to the category's taxable base at reference rate ``t_ref``.

    ``t_ref`` must be an outside rate.  For the rent regime this is the rate
    part only; the R$ base reducer is applied by the engine.  A rate outside
    [0, 1) (an IS rate so large that the inside rate rounds to 1) is a
    ``ValueError`` whose message starts with the category.
    """
    if t_ref.basis is not RateBasis.OUTSIDE:
        raise ValueError("t_ref must be an outside rate")
    try:
        return Rate.inside(inside_rate_function(category.treatment)(t_ref.value))
    except ValueError as e:
        raise ValueError(f"category {category.id!r}: {e}") from None


# -- counterfactual construction -------------------------------------------


def resolve_selector(schedule: Schedule, selector: str) -> tuple[str, ...]:
    """Category ids matched by a removal selector.

    A selector is a comma-separated list of tokens; each token matches a
    category id, a group label, or a treatment kind (e.g. ``selective``).
    """
    if not isinstance(selector, str) or not selector.strip():
        raise ScheduleError("empty removal selector")
    ids = {c.id for c in schedule.categories}
    groups = {c.group for c in schedule.categories}
    kinds = {k.value for k in TreatmentKind}
    matched: list[str] = []
    for token in (t.strip() for t in selector.split(",")):
        if not token:
            raise ScheduleError(f"empty token in removal selector {selector!r}")
        if token in ids:
            hits = [token]
        elif token in groups:
            hits = [c.id for c in schedule.categories if c.group == token]
        elif token in kinds:
            hits = [c.id for c in schedule.categories if c.treatment.kind.value == token]
            if not hits:
                raise ScheduleError(
                    f"selector {token!r} matches no category; valid selectors: "
                    + _valid_selectors(schedule)
                )
        else:
            raise ScheduleError(
                f"unknown removal selector {token!r}; valid selectors: " + _valid_selectors(schedule)
            )
        for h in hits:
            if h not in matched:
                matched.append(h)
    return tuple(matched)


def with_removal(schedule: Schedule, selector: str) -> Schedule:
    """Counterfactual schedule with the selected categories' favored treatment removed.

    The matched categories are re-assigned the plain reference rate (for
    selective-tax categories this strips the IS component); ids, groups,
    cashback classes and denominator flags are untouched.
    """
    targets = set(resolve_selector(schedule, selector))
    new_categories = tuple(
        replace(c, treatment=TaxTreatment(TreatmentKind.REFERENCE_RATE)) if c.id in targets else c
        for c in schedule.categories
    )
    return replace(schedule, categories=new_categories)


def default_removal_selectors(schedule: Schedule) -> tuple[str, ...]:
    """One selector per group that enjoys a non-standard treatment.

    These are the groups whose elimination is worth a counterfactual row:
    exemptions, reduced fractions, the rent regime, specific regimes and the
    selective tax.
    """
    favored = (
        TreatmentKind.ZERO_RATE,
        TreatmentKind.REDUCED_FRACTION,
        TreatmentKind.RENT_REGIME,
        TreatmentKind.SPECIFIC_REGIME,
        TreatmentKind.SELECTIVE,
    )
    out: list[str] = []
    for c in schedule.categories:
        if c.treatment.kind in favored and c.group not in out:
            out.append(c.group)
    return tuple(out)


# -- loading ----------------------------------------------------------------

_TOP_KEYS = {"name", "categories", "cashback", "eligibility_threshold", "target_net_burden"}
_CASHBACK_KEYS = {"utility_refund_share", "standard_refund_share"}
_CATEGORY_KEYS = {"id", "label", "group", "treatment", "cashback_class", "in_denominator", "baseline_effective"}
_CATEGORY_REQUIRED = {"id", "label", "treatment", "cashback_class", "in_denominator", "baseline_effective"}


def load_schedule(path: str | Path) -> Schedule:
    """Load and validate a schedule config file."""
    path = Path(path)
    if not path.exists():
        raise ScheduleError(f"schedule file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ScheduleError(f"{path}: parse error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    try:
        return parse_schedule(raw)
    except ScheduleError as e:
        raise ScheduleError(f"{path}: {e}") from e


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schedule.to_dict(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8")


def parse_schedule(raw: Any) -> Schedule:
    """Build a validated Schedule from a schema dict."""
    if not isinstance(raw, dict):
        raise ScheduleError("top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, "top level")
    if "categories" not in raw:
        raise ScheduleError("missing required key 'categories'")
    cat_list = raw["categories"]
    if not isinstance(cat_list, list) or not cat_list:
        raise ScheduleError("'categories' must be a non-empty list")
    categories = tuple(_parse_category(c, i) for i, c in enumerate(cat_list))

    cashback = raw.get("cashback", {})
    if not isinstance(cashback, dict):
        raise ScheduleError("'cashback' must be an object")
    _reject_unknown(cashback, _CASHBACK_KEYS, "cashback")

    return Schedule(
        categories=categories,
        utility_refund_share=_number(cashback.get("utility_refund_share", 0.466), "utility_refund_share"),
        standard_refund_share=_number(cashback.get("standard_refund_share", 0.20), "standard_refund_share"),
        eligibility_threshold=_number(raw.get("eligibility_threshold", 0.0), "eligibility_threshold"),
        target_net_burden=_number(raw.get("target_net_burden", 0.201), "target_net_burden"),
        name=str(raw.get("name", "")),
    )


def bundled_schedule_path(name: str) -> Path:
    """Path of a schedule fixture shipped with the package (e.g. ``plp68``).

    The name, less an optional ``.json``, must be a token, so no name reaches
    outside the package's data directory.
    """
    stem = name[:-5] if name.endswith(".json") else name
    if not _is_token(stem):
        raise ScheduleError(f"no bundled schedule named {name!r}")
    ref = resources.files("ivasim.data").joinpath(f"{stem}.json")
    with resources.as_file(ref) as p:
        if not p.exists():
            raise ScheduleError(f"no bundled schedule named {name!r}")
        return Path(p)


# -- helpers ----------------------------------------------------------------


def _is_token(s: str) -> bool:
    return re.fullmatch(r"[a-z][a-z0-9_]*", s) is not None


def _default_group(treatment: TaxTreatment) -> str:
    if treatment.kind is TreatmentKind.REDUCED_FRACTION:
        return f"reduzida_{int(round(treatment.fraction * 100))}"
    return _DEFAULT_GROUP[treatment.kind]


def _check_number_param(kind: TreatmentKind, name: str, value: float, at: str = "") -> None:
    """Range check of the plain-number parameter ``name`` of a ``kind`` treatment;
    the message starts with the config field ``at`` when given."""
    label = f"{at}: {kind.value} {name}" if at else f"{kind.value} {name}"
    # written so that NaN fails every range check; infinity fails the bounded ones
    if name == "fraction" and kind is TreatmentKind.REDUCED_FRACTION and not 0.0 < value < 1.0:
        raise ScheduleError(f"{label} must be in (0, 1), got {value}")
    if name == "fraction" and kind is TreatmentKind.RENT_REGIME and not 0.0 < value <= 1.0:
        raise ScheduleError(f"{label} must be in (0, 1], got {value}")
    if name in ("reducer", "vat_fraction"):
        _check_nonnegative(label, value)


def _check_nonnegative(name: str, value: float) -> None:
    """``value`` must be a finite number >= 0; NaN and infinity are refused."""
    if not value >= 0.0:
        raise ScheduleError(f"{name} must be >= 0, got {value}")
    if value == math.inf:
        raise ScheduleError(f"{name} must be finite, got {value}")


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ScheduleError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _number(v: Any, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScheduleError(f"{where}: expected a number, got {v!r}")
    return float(v)


def _parse_rate(v: Any, where: str, basis: RateBasis) -> Rate:
    """A rate from a config, stored on ``basis``, which is also the basis of a bare number.

    A value out of range for its basis, or after the conversion, is a
    ``ScheduleError`` that names the field (``where``).
    """
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        value, given = float(v), basis
    elif isinstance(v, dict):
        _reject_unknown(v, {"value", "basis"}, where)
        if "value" not in v:
            raise ScheduleError(f"{where}: rate object needs a 'value'")
        basis_token = v.get("basis", basis.value)
        try:
            given = RateBasis(basis_token)
        except ValueError:
            raise ScheduleError(f"{where}: unknown rate basis {basis_token!r}") from None
        value = _number(v["value"], where)
    else:
        raise ScheduleError(f"{where}: expected a number or {{value, basis}} object, got {v!r}")
    try:
        rate = Rate(value, given)
        return to_inside(rate) if basis is RateBasis.INSIDE else to_outside(rate)
    except ValueError as e:  # out of range for its basis
        raise ScheduleError(f"{where}: {e}") from e


def _parse_treatment(raw: Any, where: str) -> TaxTreatment:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ScheduleError(f"{where}: treatment must be an object with a 'kind'")
    try:
        kind = TreatmentKind(raw["kind"])
    except ValueError:
        raise ScheduleError(
            f"{where}: unknown treatment kind {raw['kind']!r}; expected one of "
            + ", ".join(sorted(k.value for k in TreatmentKind))
        ) from None
    params = _KIND_PARAMS[kind]
    _reject_unknown(raw, {"kind", *params}, f"{where} treatment")
    values: dict[str, Any] = {}
    for name, basis in params.items():
        v = raw.get(name, 1.0) if name == "vat_fraction" else _require(raw, name, where)
        at = f"{where}.{name}"
        values[name] = _number(v, at) if basis is None else _parse_rate(v, at, basis)
        if basis is None:  # a rate names its field when out of range; so does a number
            _check_number_param(kind, name, values[name], at)
    return TaxTreatment(kind, **values)


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ScheduleError(f"{where}: missing required key {key!r}")
    return obj[key]


def _parse_category(raw: Any, index: int) -> Category:
    where = f"categories[{index}]"
    if not isinstance(raw, dict):
        raise ScheduleError(f"{where}: expected an object")
    cat_id = raw.get("id")
    if isinstance(cat_id, str) and cat_id:
        where = f"category {cat_id!r}"
    _reject_unknown(raw, _CATEGORY_KEYS, where)
    missing = _CATEGORY_REQUIRED - set(raw)
    if missing:
        raise ScheduleError(f"{where}: missing required key(s): {', '.join(sorted(missing))}")
    cashback_token = raw["cashback_class"]
    try:
        cashback = CashbackClass(cashback_token)
    except ValueError:
        raise ScheduleError(
            f"{where}: unknown cashback_class {cashback_token!r}; expected one of "
            + ", ".join(k.value for k in CashbackClass)
        ) from None
    if not isinstance(raw["in_denominator"], bool):
        raise ScheduleError(f"{where}: in_denominator must be a boolean")
    return Category(
        id=str(raw["id"]),
        label=str(raw["label"]),
        treatment=_parse_treatment(raw["treatment"], where),
        cashback=cashback,
        in_denominator=raw["in_denominator"],
        baseline_effective=_parse_rate(raw["baseline_effective"], f"{where}.baseline_effective",
                                       RateBasis.INSIDE),
        group=str(raw.get("group", "")),
    )


def _category_to_dict(c: Category) -> dict[str, Any]:
    t = c.treatment
    treatment: dict[str, Any] = {"kind": t.kind.value}
    for name, basis in _KIND_PARAMS[t.kind].items():
        v = getattr(t, name)
        treatment[name] = v if basis is None else {"value": v.value, "basis": v.basis.value}
    return {
        "id": c.id,
        "label": c.label,
        "group": c.group,
        "treatment": treatment,
        "cashback_class": c.cashback.value,
        "in_denominator": c.in_denominator,
        "baseline_effective": {"value": c.baseline_effective.value, "basis": "inside"},
    }


def _valid_selectors(schedule: Schedule) -> str:
    ids = [c.id for c in schedule.categories]
    groups = [g for g in schedule.groups()]
    kinds = sorted({c.treatment.kind.value for c in schedule.categories})
    return f"ids {ids}, groups {groups}, kinds {kinds}"
