"""Structural Verilog export / import.

Writes a flat gate-level netlist as a single-module structural Verilog
file (named instances, named port connections), and reads the same
dialect back against a cell library — the interchange format every EDA
tool in the paper's flow speaks.  The writer/parser pair round-trips
everything the library models: cell types, connectivity, ports, clock
nets (``(* clock *)`` attribute), and generator attrs (``(* key =
"value" *)`` on instances).

Scope: the dialect this library emits — one module, named connections,
no expressions, no busses (bit-blasted names).  That is deliberate;
see the paper's flows, which exchange flat post-synthesis netlists.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TextIO

from repro.errors import NetlistError, TechError
from repro.netlist.netlist import Netlist
from repro.tech.library import CellLibrary

#: Instance attribute naming the library an imported cell resolves in.
REGION_ATTR = "region"
DEFAULT_REGION = "logic"

_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")


def _escape(name: str) -> str:
    """Verilog-escape identifiers containing '/' etc."""
    if _ID_RE.match(name):
        return name
    return f"\\{name} "          # escaped identifier, trailing space


def _unescape(token: str) -> str:
    if token.startswith("\\"):
        return token[1:].rstrip()   # escaped ids end with a space
    return token


def write_verilog(netlist: Netlist, path: str | Path) -> None:
    """Write *netlist* to *path* as structural Verilog."""
    with open(path, "w") as handle:
        _write(netlist, handle)


def _write(netlist: Netlist, out: TextIO) -> None:
    module = _escape(netlist.name)
    in_ports = [p for p in netlist.ports.values() if p.direction == "in"]
    out_ports = [p for p in netlist.ports.values() if p.direction == "out"]
    port_names = [_escape(p.name) for p in in_ports + out_ports]
    out.write(f"module {module} (\n    ")
    out.write(",\n    ".join(port_names))
    out.write("\n);\n\n")
    for port in in_ports:
        if port.false_path:
            out.write("  (* false_path *)\n")
        out.write(f"  input {_escape(port.name)};\n")
    for port in out_ports:
        if port.false_path:
            out.write("  (* false_path *)\n")
        out.write(f"  output {_escape(port.name)};\n")
    out.write("\n")
    for net in netlist.nets.values():
        if net.is_clock:
            out.write("  (* clock *)\n")
        out.write(f"  wire {_escape(net.name)};\n")
    out.write("\n")
    # Port pins alias their nets through assigns.
    for port in in_ports:
        if port.pin.net is not None:
            out.write(f"  assign {_escape(port.pin.net.name)} = "
                      f"{_escape(port.name)};\n")
    for port in out_ports:
        if port.pin.net is not None:
            out.write(f"  assign {_escape(port.name)} = "
                      f"{_escape(port.pin.net.name)};\n")
    out.write("\n")
    for inst in netlist.instances.values():
        for key, value in sorted(inst.attrs.items()):
            out.write(f"  (* {key} = \"{value}\" *)\n")
        conns = []
        for pin_name, pin in inst.pins.items():
            if pin.net is None:
                continue
            conns.append(f".{pin_name}({_escape(pin.net.name)})")
        out.write(f"  {inst.cell.name} {_escape(inst.name)} "
                  f"({', '.join(conns)});\n")
    out.write("\nendmodule\n")


_TOKEN_RE = re.compile(
    r"\\[^ ]+ |\(\*.*?\*\)|[A-Za-z_][A-Za-z0-9_$]*|[().,;=]")


def _tokenize(text: str) -> list[str]:
    # Strip comments first.
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    out = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise NetlistError(
                f"verilog parse error near: {text[pos:pos + 40]!r}")
        out.append(match.group(0))
        pos = match.end()
    return out


def _as_library_map(library) -> dict[str, CellLibrary]:
    """Normalize the importer's library argument.

    A bare :class:`CellLibrary` serves every region; a dict (the shape
    of ``TechSetup.libraries``) resolves each instance's cell in the
    library named by its ``(* region = "..." *)`` attribute, defaulting
    to ``"logic"`` — the same convention the generators, partitioner
    and DFT surgery already use.
    """
    if isinstance(library, CellLibrary):
        return {DEFAULT_REGION: library}
    return dict(library)


class _Parser:
    """Recursive-descent parser for the emitted dialect."""

    def __init__(self, tokens: list[str],
                 libraries: dict[str, CellLibrary]):
        self.tokens = tokens
        self.pos = 0
        self.libraries = libraries

    def resolve_cell(self, cell_name: str, attrs: dict[str, str],
                     inst_name: str):
        region = attrs.get(REGION_ATTR, DEFAULT_REGION)
        try:
            library = self.libraries[region]
        except KeyError:
            if len(self.libraries) == 1:
                library = next(iter(self.libraries.values()))
            else:
                raise TechError(
                    f"instance {inst_name!r} names region {region!r}; "
                    f"known libraries: {sorted(self.libraries)}") from None
        return library.get(cell_name)

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise NetlistError("unexpected end of verilog input")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise NetlistError(f"expected {token!r}, got {got!r}")

    def pending_attrs(self) -> dict[str, str]:
        attrs: dict[str, str] = {}
        while self.peek() is not None and self.peek().startswith("(*"):
            body = self.next()[2:-2].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                attrs[key.strip()] = value.strip().strip('"')
            else:
                attrs[body.strip()] = ""
        return attrs

    def parse(self) -> Netlist:
        self.pending_attrs()
        self.expect("module")
        netlist = Netlist(_unescape(self.next()))
        self.expect("(")
        while self.peek() != ")":
            self.next()           # port order list; directions follow
            if self.peek() == ",":
                self.next()
        self.expect(")")
        self.expect(";")

        pending: list[tuple[str, str, str, dict]] = []   # deferred insts
        assigns: list[tuple[str, str]] = []
        port_dirs: dict[str, tuple[str, bool]] = {}
        clock_nets: set[str] = set()
        wires: list[str] = []

        while self.peek() not in (None, "endmodule"):
            attrs = self.pending_attrs()
            token = self.next()
            if token in ("input", "output"):
                name = _unescape(self.next())
                self.expect(";")
                direction = "in" if token == "input" else "out"
                port_dirs[name] = (direction, "false_path" in attrs)
            elif token == "wire":
                name = _unescape(self.next())
                self.expect(";")
                wires.append(name)
                if "clock" in attrs:
                    clock_nets.add(name)
            elif token == "assign":
                lhs = _unescape(self.next())
                self.expect("=")
                rhs = _unescape(self.next())
                self.expect(";")
                assigns.append((lhs, rhs))
            else:
                cell_name = token
                inst_name = _unescape(self.next())
                self.expect("(")
                conns: dict[str, str] = {}
                while self.peek() != ")":
                    token2 = self.next()
                    if token2 == ",":
                        continue
                    if token2 != ".":
                        raise NetlistError(
                            f"expected .pin(...), got {token2!r}")
                    pin_name = self.next()
                    self.expect("(")
                    conns[pin_name] = _unescape(self.next())
                    self.expect(")")
                self.expect(")")
                self.expect(";")
                pending.append((cell_name, inst_name, "", attrs |
                                {"__conns__": conns}))  # type: ignore
        # Build.
        for name in wires:
            netlist.add_net(name, is_clock=name in clock_nets)
        port_net: dict[str, str] = {}
        for lhs, rhs in assigns:
            if lhs in netlist.nets:          # input port: net = port
                port_net[rhs] = lhs
            else:                            # output port: port = net
                port_net[lhs] = rhs
        for name, (direction, false_path) in port_dirs.items():
            port = netlist.add_port(name, direction, false_path=false_path)
            net_name = port_net.get(name)
            if net_name is not None:
                netlist.net(net_name).attach(port.pin)
        for cell_name, inst_name, _, attrs in pending:
            conns = attrs.pop("__conns__")   # type: ignore
            inst = netlist.add_instance(
                inst_name, self.resolve_cell(cell_name, attrs, inst_name))
            inst.attrs.update({k: v for k, v in attrs.items()})
            # Attach output last so single-driver checks see sinks of
            # earlier instances first (order doesn't actually matter,
            # but keep deterministic).
            for pin_name, net_name in conns.items():
                netlist.net(net_name).attach(inst.pin(pin_name))
        return netlist


def read_verilog(path: str | Path,
                 library: CellLibrary | dict[str, CellLibrary]) -> Netlist:
    """Parse a structural Verilog file written by :func:`write_verilog`.

    *library* is either a single :class:`CellLibrary` or a region-name
    -> library dict (``TechSetup.libraries``); with a dict, each
    instance's cell resolves in the library named by its ``(* region =
    "..." *)`` attribute (default ``"logic"``) — required for
    heterogeneous designs where the logic and memory dies carry
    same-named cells at different nodes.  Unknown cells raise
    :class:`~repro.errors.TechError`.
    """
    return loads(Path(path).read_text(), library)


def loads(text: str,
          library: CellLibrary | dict[str, CellLibrary]) -> Netlist:
    """Parse structural Verilog source *text*; see :func:`read_verilog`."""
    parser = _Parser(_tokenize(text), _as_library_map(library))
    netlist = parser.parse()
    netlist.validate()
    return netlist


def dumps(netlist: Netlist) -> str:
    """Render to a string (used by tests and quick inspection)."""
    import io
    buffer = io.StringIO()
    _write(netlist, buffer)
    return buffer.getvalue()
