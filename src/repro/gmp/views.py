"""Group views.

A :class:`GroupView` is a consistent snapshot of the group: an incarnation
number and a member list.  The protocol's structural rules live here:

- the **leader** is the member with the lowest address (the paper's
  implementation used lowest IP address);
- the **crown prince** is "the machine which is next in line to be the
  leader if the leader fails" -- the second-lowest address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class GroupView:
    """An immutable group membership view.

    The structural roles are worked out once, when the view is built
    (a daemon reads them for nearly every message it handles):
    ``leader`` is the lowest-addressed member, ``crown_prince`` the
    second-lowest (None for a singleton group), ``is_singleton`` whether
    the view has one member.  They are not part of the view's identity:
    equality, hashing and ``repr`` see ``group_id`` and ``members``.
    """

    group_id: int
    members: Tuple[int, ...]
    leader: int = field(init=False, repr=False, compare=False)
    crown_prince: Optional[int] = field(init=False, repr=False, compare=False)
    is_singleton: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = tuple(sorted(set(self.members)))
        if not members:
            raise ValueError("a group view must have at least one member")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "leader", members[0])
        object.__setattr__(self, "crown_prince",
                           members[1] if len(members) > 1 else None)
        object.__setattr__(self, "is_singleton", len(members) == 1)

    def contains(self, address: int) -> bool:
        return address in self.members

    def without(self, *addresses: int) -> Tuple[int, ...]:
        """Member list minus the given addresses."""
        gone = set(addresses)
        return tuple(m for m in self.members if m not in gone)

    def with_added(self, *addresses: int) -> Tuple[int, ...]:
        """Member list plus the given addresses."""
        return tuple(sorted(set(self.members) | set(addresses)))

    def __repr__(self) -> str:
        return f"GroupView(gid={self.group_id}, members={list(self.members)})"


def singleton_view(address: int, group_id: int = 0) -> GroupView:
    """The view a daemon starts with: a group of one."""
    return GroupView(group_id=group_id, members=(address,))
