"""Processes and IV domains.

A *process* owns a virtual address space backed by the frame allocator;
an *IV domain* is the unit of integrity-tree isolation (one enclave, or a
group of threads of the same process -- paper Section IX groups threads
of one process into one domain).  Here each process is one domain, which
matches the paper's multiprogrammed setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.osmodel.allocator import FrameAllocator
from repro.osmodel.pagetable import PageTable


@dataclass
class PageEvent:
    """A page mapped/unmapped notification delivered to the secure engine."""

    domain_id: int
    vpn: int
    pfn: int


class Process:
    """One process == one IV domain in our multiprogrammed setup."""

    def __init__(self, domain_id: int, name: str,
                 allocator: FrameAllocator,
                 extended_pte: bool = False) -> None:
        self.domain_id = domain_id
        self.name = name
        self.allocator = allocator
        self.page_table = PageTable(domain_id, extended=extended_pte)
        self._next_vpn = 0x1000  # arbitrary base
        self.live_vpns: set[int] = set()

    @property
    def footprint_pages(self) -> int:
        return len(self.live_vpns)

    def allocate_page(self, pfn: Optional[int] = None) -> PageEvent:
        """Map a fresh virtual page; allocates a frame unless given one."""
        if pfn is None:
            pfn = self.allocator.alloc(self.domain_id)
        vpn = self._next_vpn
        self._next_vpn += 1
        self.page_table.map(vpn, pfn)
        self.live_vpns.add(vpn)
        return PageEvent(self.domain_id, vpn, pfn)

    def free_page(self, vpn: int) -> PageEvent:
        if vpn not in self.live_vpns:
            raise KeyError(f"vpn {vpn} not live in {self.name}")
        pfn = self.page_table.unmap(vpn)
        self.allocator.free(pfn)
        self.live_vpns.remove(vpn)
        return PageEvent(self.domain_id, vpn, pfn)

    def translate(self, vpn: int) -> Optional[int]:
        return self.page_table.translate(vpn)


@dataclass
class DomainRegistry:
    """Book-keeping of live domains for the IV domain controller."""

    domains: dict[int, Process] = field(default_factory=dict)

    def register(self, proc: Process) -> None:
        if proc.domain_id in self.domains:
            raise ValueError(f"domain {proc.domain_id} already registered")
        self.domains[proc.domain_id] = proc

    def remove(self, domain_id: int) -> Process:
        return self.domains.pop(domain_id)

    def __getitem__(self, domain_id: int) -> Process:
        return self.domains[domain_id]

    def __len__(self) -> int:
        return len(self.domains)
