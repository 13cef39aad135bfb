"""Event schemas: which fields a dataset's events carry.

The paper's events "consist of several categorical and numerical fields"
(Section 2).  A schema declares those fields once per dataset so encoders,
feature generators and augmentations can be built generically.

Categorical fields use integer codes in ``[1, cardinality)``; the code ``0``
is reserved for padding in batched tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EventSchema", "PADDING_CODE"]

PADDING_CODE = 0


@dataclass(frozen=True)
class EventSchema:
    """Declares the structure of one event.

    Parameters
    ----------
    categorical:
        Mapping field name -> cardinality (number of codes *including* the
        reserved padding code 0, so real values are ``1..cardinality-1``).
    numerical:
        Names of real-valued fields (e.g. ``amount``).
    time_field:
        Name of the event-time field (float days since epoch); always
        present in addition to the declared fields.
    """

    categorical: dict = field(default_factory=dict)
    numerical: tuple = ()
    time_field: str = "event_time"

    def __post_init__(self):
        object.__setattr__(self, "numerical", tuple(self.numerical))
        overlap = set(self.categorical) & set(self.numerical)
        if overlap:
            raise ValueError("fields declared both categorical and numerical: %s" % overlap)
        if self.time_field in self.categorical or self.time_field in self.numerical:
            raise ValueError("time field %r must not be declared twice" % self.time_field)
        for name, cardinality in self.categorical.items():
            if cardinality < 2:
                raise ValueError(
                    "categorical field %r needs cardinality >= 2 (got %d)"
                    % (name, cardinality)
                )

    @property
    def field_names(self):
        """All event fields, time first, then categorical, then numerical."""
        return (self.time_field,) + tuple(self.categorical) + self.numerical
