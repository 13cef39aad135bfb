"""Synthetic analogues of the in-house commercial datasets (Section 4.3).

The paper evaluates CoLES on two proprietary worlds:

- **legal entities** — money transfers between companies (Table 9); the
  counterparty identifier encodes region/business type in its prefix, and
  the paper stresses that hand-crafting features over it is hard because
  the right grouping of receivers is unknown.
- **retail customers** — debit/credit card transactions (Table 8), where
  merchant type is an obvious and effective grouping key.

The generators reproduce that asymmetry.  Every company/client carries a
vector of latent factors (sector, size, stability, holding membership);
the factors shape both the generated transactions and a *dict* of label
channels, one per downstream task of Tables 10 and 11.  Use
:func:`with_label_channel` to project a multi-task dataset onto one task.

The legal-entity label signal flows mostly through *which counterparty
group* a company transacts with — recoverable by an embedding over
counterparty codes but invisible to aggregates that only group by currency
or transfer type (the realistic hand-crafted feature set, given that raw
counterparty ids are too high-cardinality to aggregate on).  The retail
signal flows mostly through merchant-type aggregates, which hand-crafted
features capture directly.
"""

from __future__ import annotations

import numpy as np

from ..schema import EventSchema
from ..sequences import EventSequence, SequenceDataset
from .base import lognormal_amounts, markov_types, periodic_event_times, sample_length

__all__ = [
    "make_legal_entities_dataset",
    "make_retail_customers_dataset",
    "with_label_channel",
    "holding_pairs",
    "LEGAL_SCHEMA",
    "RETAIL_CUSTOMER_SCHEMA",
    "LEGAL_TASKS",
    "RETAIL_CUSTOMER_TASKS",
]

_NUM_SECTORS = 5
_GROUPS_PER_SECTOR = 3
_NUM_COUNTERPARTY_GROUPS = _NUM_SECTORS * _GROUPS_PER_SECTOR
_COUNTERPARTIES_PER_GROUP = 10
_NUM_COUNTERPARTIES = _NUM_COUNTERPARTY_GROUPS * _COUNTERPARTIES_PER_GROUP

LEGAL_SCHEMA = EventSchema(
    categorical={
        "counterparty": _NUM_COUNTERPARTIES + 1,
        "currency": 4,
        "transfer_type": 26,
    },
    numerical=("amount",),
)

LEGAL_TASKS = (
    "insurance_lead",
    "credit_lead",
    "credit_scoring",
    "fraud",
)

RETAIL_CUSTOMER_SCHEMA = EventSchema(
    categorical={"merchant_type": 13, "currency": 4, "country": 7},
    numerical=("amount",),
)

RETAIL_CUSTOMER_TASKS = ("credit_scoring", "churn", "insurance_lead")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def make_legal_entities_dataset(num_companies=500, mean_length=80,
                                min_length=30, max_length=200, seed=0,
                                num_holdings=60, fraud_rate=0.08):
    """Generate the legal-entity world with per-company task labels.

    Every company's label is a dict with keys :data:`LEGAL_TASKS` plus
    ``holding`` (the holding id, used by the pair task of Table 10).
    """
    rng = np.random.default_rng(seed)
    sequences = []
    for company in range(num_companies):
        holding = int(rng.integers(0, num_holdings))
        # Deterministic per-holding stream (hash() is randomised per
        # process and must not be used for seeding).
        holding_rng = np.random.default_rng(
            (seed * 1_000_003 + holding * 7_919 + 17) % 2**32
        )
        sector = int(holding_rng.integers(0, _NUM_SECTORS))
        # Holding-level tilt: companies of one holding favour the same
        # counterparty groups within the sector (spiky Dirichlet so
        # holdings are mutually distinctive).
        holding_tilt = holding_rng.dirichlet(np.full(_GROUPS_PER_SECTOR, 0.8))

        size = rng.normal(0.0, 1.0)
        stability = rng.normal(0.0, 1.0)

        # Counterparty-group affinity: concentrated on the sector's groups,
        # tilted by the holding, with some cross-sector leakage.
        group_affinity = np.full(_NUM_COUNTERPARTY_GROUPS, 0.3)
        sector_groups = np.arange(
            sector * _GROUPS_PER_SECTOR, (sector + 1) * _GROUPS_PER_SECTOR
        )
        group_affinity[sector_groups] += 6.0 * holding_tilt + 1.0
        group_mixture = rng.dirichlet(45.0 * group_affinity / group_affinity.sum())

        length = sample_length(mean_length, min_length, max_length, rng)
        groups = markov_types(group_mixture, 0.35, length, rng) - 1  # 0-based
        within = rng.integers(0, _COUNTERPARTIES_PER_GROUP, size=length)
        counterparty = groups * _COUNTERPARTIES_PER_GROUP + within + 1

        currency = 1 + (rng.random(length) < 0.2 * (1 + 0.3 * size)).astype(int)
        currency = np.minimum(currency + (rng.random(length) < 0.05), 3)
        transfer_type = markov_types(
            rng.dirichlet(np.full(25, 1.0 + 0.5 * (sector + 1))), 0.3, length, rng
        )
        times = periodic_event_times(length, 1.5 + 0.5 * abs(size), 0.1, rng,
                                     start_day=float(rng.integers(0, 7)))
        amounts = lognormal_amounts(
            counterparty, 6.0 + 0.8 * size, 0.9 + 0.3 * abs(stability), rng
        )

        # Fraud: a burst of transfers to out-of-sector counterparties.
        is_fraud = rng.random() < fraud_rate
        if is_fraud:
            n_bad = max(3, length // 10)
            idx = rng.choice(length, size=n_bad, replace=False)
            other = np.setdiff1d(np.arange(_NUM_COUNTERPARTY_GROUPS), sector_groups)
            bad_groups = rng.choice(other, size=n_bad)
            counterparty[idx] = (
                bad_groups * _COUNTERPARTIES_PER_GROUP
                + rng.integers(0, _COUNTERPARTIES_PER_GROUP, n_bad) + 1
            )
            amounts[idx] *= np.exp(rng.normal(2.0, 0.3, n_bad))

        noise = rng.normal(0.0, 0.6, size=4)
        sector_centered = sector - (_NUM_SECTORS - 1) / 2.0
        labels = {
            # Interest in corporate medical insurance: larger companies in
            # "people-heavy" sectors.
            "insurance_lead": int(_sigmoid(1.2 * size + 0.8 * sector_centered + noise[0]) > 0.5),
            # Credit appetite: growing (large) but unstable companies.
            "credit_lead": int(_sigmoid(0.9 * size + 0.9 * stability + noise[1]) > 0.5),
            # Default probability: instability dominates.
            "credit_scoring": int(_sigmoid(1.4 * stability - 0.6 * size + noise[2] - 1.0) > 0.5),
            "fraud": int(is_fraud),
            "holding": holding,
            "sector": sector,
        }
        sequences.append(
            EventSequence(
                seq_id=company,
                fields={
                    "event_time": times,
                    "counterparty": counterparty,
                    "currency": currency,
                    "transfer_type": transfer_type,
                    "amount": amounts,
                },
                label=labels,
            )
        )
    return SequenceDataset(sequences, LEGAL_SCHEMA, name="legal_entities").validate()


def make_retail_customers_dataset(num_clients=500, mean_length=100,
                                  min_length=40, max_length=250, seed=0):
    """Generate the retail-customer world with per-client task labels."""
    rng = np.random.default_rng(seed)
    num_merchants = 12
    sequences = []
    for client in range(num_clients):
        affluence = rng.normal(0.0, 1.0)
        discipline = rng.normal(0.0, 1.0)
        engagement = rng.normal(0.0, 1.0)

        # Merchant mixture driven by affluence: luxury vs essentials bands.
        affinity = np.ones(num_merchants)
        affinity[:4] += 3.0 * _sigmoid(-affluence)       # essentials
        affinity[4:8] += 3.0 * _sigmoid(affluence)       # lifestyle
        affinity[8:] += 2.0 * _sigmoid(affluence - 1.0)  # luxury/travel
        mixture = rng.dirichlet(20.0 * affinity / affinity.sum())

        length = sample_length(mean_length, min_length, max_length, rng)
        merchant = markov_types(mixture, 0.3, length, rng)
        country = np.where(
            rng.random(length) < 0.08 * _sigmoid(affluence) * 3.0,
            rng.integers(2, 7, size=length),
            1,
        )
        currency = np.where(country > 1, rng.integers(2, 4, size=length), 1)
        times = periodic_event_times(
            length,
            1.5 + 0.6 * _sigmoid(engagement) * 2.0,
            0.5,
            rng,
            start_day=float(rng.integers(0, 7)),
            activity_trend=-0.01 * _sigmoid(-engagement) * 2.0,
        )
        amounts = lognormal_amounts(merchant, 3.0 + 0.6 * affluence,
                                    0.6 + 0.3 * _sigmoid(-discipline), rng)

        noise = rng.normal(0.0, 0.6, size=3)
        labels = {
            "credit_scoring": int(_sigmoid(-1.3 * discipline - 0.4 * affluence + noise[0] - 0.8) > 0.5),
            "churn": int(_sigmoid(-1.4 * engagement + noise[1]) > 0.5),
            "insurance_lead": int(_sigmoid(1.1 * affluence + 0.5 * discipline + noise[2]) > 0.5),
        }
        sequences.append(
            EventSequence(
                seq_id=client,
                fields={
                    "event_time": times,
                    "merchant_type": merchant,
                    "currency": currency,
                    "country": country,
                    "amount": amounts,
                },
                label=labels,
            )
        )
    return SequenceDataset(
        sequences, RETAIL_CUSTOMER_SCHEMA, name="retail_customers"
    ).validate()


def with_label_channel(dataset, channel):
    """Project a multi-task dataset onto one task's binary label."""
    labels = [None if label is None else label[channel]
              for label in dataset.labels]
    return SequenceDataset.from_columns(
        dataset.schema, dataset.offsets, dataset.columns, dataset.ids, labels,
        name="%s:%s" % (dataset.name, channel))


def holding_pairs(dataset, num_pairs, seed=0):
    """Sample company pairs for the holding-structure-restoration task.

    Returns ``(pairs, labels)`` where pairs is an ``(N, 2)`` array of
    positions in ``dataset`` and labels mark same-holding pairs.  Positive
    pairs are oversampled to roughly balance the task, as in record-linkage
    training sets.
    """
    rng = np.random.default_rng(seed)
    holdings = np.array([label["holding"] for label in dataset.labels])
    by_holding = {}
    for position, holding in enumerate(holdings):
        by_holding.setdefault(holding, []).append(position)
    multi = [members for members in by_holding.values() if len(members) >= 2]
    if not multi:
        raise ValueError("no holding has two companies; increase dataset size")
    pairs = []
    labels = []
    for _ in range(num_pairs // 2):
        members = multi[rng.integers(0, len(multi))]
        a, b = rng.choice(members, size=2, replace=False)
        pairs.append((a, b))
        labels.append(1)
    for _ in range(num_pairs - num_pairs // 2):
        a, b = rng.integers(0, len(dataset), size=2)
        while holdings[a] == holdings[b]:
            a, b = rng.integers(0, len(dataset), size=2)
        pairs.append((a, b))
        labels.append(0)
    return np.array(pairs), np.array(labels)
