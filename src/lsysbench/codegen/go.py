"""Go backend: emits Go sources that replay a program's trace and checksum.

Layout:
  single file mode -> main.go
  split file mode  -> main.go (runtime + entry + main), f<id>.go per callee

All files belong to `package main`. As in the C runtime, callees borrow their
parameters and no reference counts are kept; freeing is left to the garbage
collector. Every binding is pinned with `_ = v<k>` because unused locals are
compile errors in Go.
"""

from __future__ import annotations

from typing import List

from .. import astgen
from .base import PATH_ERROR, BraceSyntax, EmitConfig, SourceFile

_BANNER = "// Generated benchmark program: {n} function(s), {kind} container."

_STRUCTS = {
    "array": """\
type lsObj struct {
	id   uint64
	vals []int64
}

type lsParams struct {
	items    []*lsObj
	consumed int
}
""",
    "sortedList": """\
type lsNode struct {
	val  int64
	next *lsNode
}

type lsObj struct {
	id   uint64
	head *lsNode
	size int
}

type lsParams struct {
	items    []*lsObj
	consumed int
}
""",
    "scalar": """\
type lsParams struct {
	items    []int64
	consumed int
}
""",
}

_IMPL_COMMON = """\
func lsRngNext() uint64 {
	lsRngState = lsRngState*6364136228273018565 + 1442695040888963407
	return lsRngState >> 33
}

func lsLog(opcode uint64, kind string, varID uint64, val int64, res int64) {
	event := opcode<<48 | (varID&0xFFFF)<<32 | (uint64(val)&0xFFFF)<<16 | uint64(res)&0xFFFF
	lsChecksum = lsChecksum*1099511628211 ^ event
	if lsDebug {
		fmt.Printf("OP kind=%s var=%d val=%d res=%d\\n", kind, varID, val, res)
	}
}
"""

_IMPL_PARAMS_HEAP = """\
func lsMakeParams(items []*lsObj) lsParams {
	return lsParams{items: items}
}

func lsNew(data *lsParams) *lsObj {
	if data.consumed < len(data.items) {
		obj := data.items[data.consumed]
		data.consumed++
		lsLog(1, "new", obj.id, 0, 0)
		return obj
	}
	obj := &lsObj{id: lsNextID}
	lsNextID++
	lsLog(1, "new", obj.id, 0, 1)
	return obj
}
"""

_IMPL_ARRAY = """\
func lsInsert(obj *lsObj, val int64) {
	obj.vals = append(obj.vals, val)
	lsLog(2, "insert", obj.id, val, int64(len(obj.vals)))
}

func lsRemove(obj *lsObj, val int64) {
	for i, v := range obj.vals {
		if v == val {
			obj.vals = append(obj.vals[:i], obj.vals[i+1:]...)
			lsLog(3, "remove", obj.id, val, 1)
			return
		}
	}
	lsLog(3, "remove", obj.id, val, 0)
}

func lsContains(obj *lsObj, val int64) {
	for _, v := range obj.vals {
		if v == val {
			lsLog(4, "contains", obj.id, val, 1)
			return
		}
	}
	lsLog(4, "contains", obj.id, val, 0)
}
"""

_IMPL_SORTED = """\
func lsInsert(obj *lsObj, val int64) {
	link := &obj.head
	for *link != nil && (*link).val < val {
		link = &(*link).next
	}
	*link = &lsNode{val: val, next: *link}
	obj.size++
	lsLog(2, "insert", obj.id, val, int64(obj.size))
}

func lsRemove(obj *lsObj, val int64) {
	link := &obj.head
	for *link != nil && (*link).val < val {
		link = &(*link).next
	}
	if *link != nil && (*link).val == val {
		*link = (*link).next
		obj.size--
		lsLog(3, "remove", obj.id, val, 1)
		return
	}
	lsLog(3, "remove", obj.id, val, 0)
}

func lsContains(obj *lsObj, val int64) {
	node := obj.head
	for node != nil && node.val < val {
		node = node.next
	}
	res := int64(0)
	if node != nil && node.val == val {
		res = 1
	}
	lsLog(4, "contains", obj.id, val, res)
}
"""

_IMPL_SCALAR = """\
func lsMakeParams(items []int64) lsParams {
	return lsParams{items: items}
}

func lsNew(data *lsParams, slot uint64) int64 {
	if data.consumed < len(data.items) {
		v := data.items[data.consumed]
		data.consumed++
		lsLog(1, "new", slot, 0, 0)
		return v
	}
	lsLog(1, "new", slot, 0, 1)
	return 0
}

func lsInsert(v *int64, slot uint64, val int64) {
	*v += 1
	lsLog(2, "insert", slot, val, *v)
}

func lsRemove(v *int64, slot uint64, val int64) {
	res := int64(0)
	if *v != 0 {
		res = 1
	}
	*v -= 1
	lsLog(3, "remove", slot, val, res)
}

func lsContains(v int64, slot uint64, val int64) {
	res := int64(0)
	if v == 0 {
		res = 1
	}
	lsLog(4, "contains", slot, val, res)
}
"""


def _globals_block(seed: int, debug_trace: bool) -> str:
    return (
        "var lsDebug = %s\n" % ("true" if debug_trace else "false")
        + "var lsChecksum = uint64(14695981039346656037)\n"
        + "var lsNextID = uint64(1)\n"
        + "var lsRngState = uint64(%d)\n" % seed
    )


def _runtime_impl(kind: str) -> str:
    if kind == "scalar":
        return "\n".join([_IMPL_COMMON, _IMPL_SCALAR])
    body = _IMPL_ARRAY if kind == "array" else _IMPL_SORTED
    return "\n".join([_IMPL_COMMON, _IMPL_PARAMS_HEAP, body])


_GO_OPS = {"insert": "lsInsert", "remove": "lsRemove", "contains": "lsContains"}


class _GoSyntax(BraceSyntax):
    indent = "\t"
    fn_head = "func f%d(data lsParams, path uint64) {"
    if_head = "if (path>>%d)&1 == 1 {"
    loop_head = "for lsI%d := uint64(0); lsI%d < %d; lsI%d++ {"

    def new(self, slot):
        if self.scalar:
            return ["v%d := lsNew(&data, %d)" % (slot, slot), "_ = v%d" % slot]
        return ["v%d := lsNew(&data)" % slot, "_ = v%d" % slot]

    def op(self, name, slot, value):
        if self.scalar:
            var = ("v%d" if name == "contains" else "&v%d") % slot
            return ["%s(%s, %d, %d)" % (_GO_OPS[name], var, slot, value)]
        return ["%s(v%d, %d)" % (_GO_OPS[name], slot, value)]

    def call(self, callee, slots, k):
        if slots:
            elem = "[]int64" if self.scalar else "[]*lsObj"
            args = "%s{%s}" % (elem, ", ".join("v%d" % s for s in slots))
        else:
            args = "nil"
        return ["f%d(lsMakeParams(%s), path)" % (callee, args)]


def _emit_main(entry_id: int) -> str:
    return (
        "func main() {\n"
        "\tpath := uint64(0)\n"
        "\tgotPath := false\n"
        "\tfor _, arg := range os.Args[1:] {\n"
        "\t\tif arg == \"--debug\" {\n"
        "\t\t\tlsDebug = true\n"
        "\t\t} else if !gotPath {\n"
        "\t\t\tv, err := strconv.ParseUint(arg, 10, 64)\n"
        "\t\t\tif err != nil {\n"
        "\t\t\t\tfmt.Fprintf(os.Stderr, \"%s\\n\", arg)\n"
        "\t\t\t\tos.Exit(2)\n"
        "\t\t\t}\n"
        "\t\t\tpath = v\n"
        "\t\t\tgotPath = true\n"
        "\t\t}\n"
        "\t}\n"
        "\tf%d(lsMakeParams(nil), path)\n"
        "\tfmt.Printf(\"CHECKSUM %%d\\n\", lsChecksum)\n"
        "}\n" % (PATH_ERROR, entry_id)
    )


_MAIN_IMPORTS = """\
package main

import (
	"fmt"
	"os"
	"strconv"
)
"""


class GoBackend:
    """Generates Go sources (single package main)."""

    id = "go"

    def emit(self, program: astgen.Program, cfg: EmitConfig) -> List[SourceFile]:
        kind = program.plan.container_kind
        syntax = _GoSyntax(kind, program.plan.trip_count)
        banner = _BANNER.format(n=len(program.functions), kind=kind)

        main_parts = [
            banner,
            _MAIN_IMPORTS,
            _globals_block(program.plan.seed, cfg.debug_trace),
            _STRUCTS[kind],
            _runtime_impl(kind),
        ]
        files = []
        if cfg.split_files:
            main_parts.append(syntax.function(program.entry))
            main_parts.append(_emit_main(program.entry_id))
            files.append(SourceFile("main.go", "\n".join(main_parts)))
            for fn in program.functions:
                if fn.id == program.entry_id:
                    continue
                text = "\n".join([
                    banner,
                    "package main\n",
                    syntax.function(fn),
                ])
                files.append(SourceFile("f%d.go" % fn.id, text))
        else:
            for fn in program.functions:
                main_parts.append(syntax.function(fn))
            main_parts.append(_emit_main(program.entry_id))
            files.append(SourceFile("main.go", "\n".join(main_parts)))
        return files
