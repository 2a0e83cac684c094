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

from collections import namedtuple

from .base import BraceSyntax, EmitConfig

_OBJ_ARRAY = """\
type lsObj struct {
	id   uint64
	vals []int64
}

"""

_OBJ_SORTED = """\
type lsNode struct {
	val  int64
	next *lsNode
}

type lsObj struct {
	id   uint64
	head *lsNode
	size int
}

"""

# % the parameter element type, as in _KINDS
_PARAMS = """\
type lsParams struct {
	items    []%s
	consumed int
}
"""

_IMPL_COMMON = """\
func lsLog(opcode uint64, kind string, varID uint64, val int64, res int64) {
	event := opcode<<48 + varID<<32 + (uint64(val)&0xFFFF)<<16 + uint64(res)&0xFFFF
	lsChecksum = lsChecksum*1099511628211 + event
	if lsDebug {
		fmt.Printf("OP kind=%s var=%d val=%d res=%d\\n", kind, varID, val, res)
	}
}
"""

_IMPL_PARAMS = """\
func lsMakeParams(items []%s) lsParams {
	return lsParams{items: items}
}
"""

_IMPL_NEW_HEAP = """\
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


_Kind = namedtuple("_Kind", "param structs impl")

# A kind's parameter element type, object structs and runtime.
_KINDS = {
    "array": _Kind("*lsObj", _OBJ_ARRAY, _IMPL_NEW_HEAP + "\n" + _IMPL_ARRAY),
    "sortedList": _Kind("*lsObj", _OBJ_SORTED, _IMPL_NEW_HEAP + "\n" + _IMPL_SORTED),
    "scalar": _Kind("int64", "", _IMPL_SCALAR),
}

_MAIN_IMPORTS = """\
package main

import (
	"fmt"
	"os"
	"strconv"
)
"""


class GoBackend(BraceSyntax):
    """Generates Go sources (single package main)."""

    extension = "go"
    kinds = _KINDS
    banner = "// Generated benchmark program: {n} function(s), {kind} container."
    file_head = "package main\n"
    main_fn = """\
func main() {
	path := uint64(0)
	gotPath := false
	for _, arg := range os.Args[1:] {
		if arg == "--debug" {
			lsDebug = true
		} else if !gotPath {
			v, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s\\n", arg)
				os.Exit(2)
			}
			path = v
			gotPath = true
		}
	}
	f%d(lsMakeParams(nil), path)
	fmt.Printf("CHECKSUM %%d\\n", lsChecksum)
}
"""
    indent = "\t"
    fn_head = "func f%d(data lsParams, path uint64) {"
    if_head = "if (path>>%d)&1 == 1 {"
    loop_head = "for lsI%d := uint64(0); lsI%d < %d; lsI%d++ {"

    def runtime(self, cfg: EmitConfig) -> str:
        return "\n".join([
            _MAIN_IMPORTS,
            "var lsDebug = %s\n" % ("true" if cfg.debug_trace else "false")
            + "var lsChecksum = uint64(14695981039346656037)\n"
            + "var lsNextID = uint64(1)\n",
            self.parts.structs + _PARAMS % self.parts.param,
            _IMPL_COMMON,
            _IMPL_PARAMS % self.parts.param,
            self.parts.impl,
        ])

    def new(self, slot):
        if self.scalar:
            return ["v%d := lsNew(&data, %d)" % (slot, slot), "_ = v%d" % slot]
        return ["v%d := lsNew(&data)" % slot, "_ = v%d" % slot]

    def op(self, name, slot, value):
        if self.scalar:
            var = ("v%d" if name == "contains" else "&v%d") % slot
            return ["ls%s(%s, %d, %d)" % (name.capitalize(), var, slot, value)]
        return ["ls%s(v%d, %d)" % (name.capitalize(), slot, value)]

    def call(self, callee, slots, k):
        args = "nil"
        if slots:
            args = "[]%s{%s}" % (self.parts.param, ", ".join("v%d" % s for s in slots))
        return ["f%d(lsMakeParams(%s), path)" % (callee, args)]
