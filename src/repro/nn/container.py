"""Module container: ModuleList."""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.nn.module import Module


class ModuleList(Module):
    """A list of sub-modules that registers each for parameter traversal."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        setattr(self, name, module)
        self._order.append(name)
        return self

    def __iter__(self) -> Iterator[Module]:
        return (getattr(self, name) for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return getattr(self, self._order[index])

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container; call its items instead")
