// Generated benchmark program: 3 function(s), array container.
package main

import (
	"fmt"
	"os"
	"strconv"
)

var lsDebug = false
var lsChecksum = uint64(14695981039346656037)
var lsNextID = uint64(1)

type lsObj struct {
	id   uint64
	vals []int64
}

type lsParams struct {
	items    []*lsObj
	consumed int
}

func lsLog(opcode uint64, kind string, varID uint64, val int64, res int64) {
	event := opcode<<48 + varID<<32 + (uint64(val)&0xFFFF)<<16 + uint64(res)&0xFFFF
	lsChecksum = lsChecksum*1099511628211 + event
	if lsDebug {
		fmt.Printf("OP kind=%s var=%d val=%d res=%d\n", kind, varID, val, res)
	}
}

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

func f0(data lsParams, path uint64) {
	v0 := lsNew(&data)
	_ = v0
	lsInsert(v0, 430)
}

func f1(data lsParams, path uint64) {
	v0 := lsNew(&data)
	_ = v0
	lsContains(v0, 840)
	if (path>>0)&1 == 1 {
		lsInsert(v0, 12)
	}
}

func f2(data lsParams, path uint64) {
	f0(lsMakeParams(nil), path)
	v0 := lsNew(&data)
	_ = v0
	lsInsert(v0, 895)
	lsRemove(v0, 264)
	lsContains(v0, 513)
	{
		v1 := lsNew(&data)
		_ = v1
		lsContains(v0, 700)
	}
	if (path>>0)&1 == 1 {
		v2 := lsNew(&data)
		_ = v2
		lsInsert(v2, 475)
		for lsI2 := uint64(0); lsI2 < 2; lsI2++ {
			f1(lsMakeParams([]*lsObj{v0, v2}), path)
		}
	} else {
		lsRemove(v0, 666)
		for lsI2 := uint64(0); lsI2 < 2; lsI2++ {
			lsContains(v0, 951)
		}
	}
	if (path>>1)&1 == 1 {
		lsRemove(v0, 141)
	}
	for lsI1 := uint64(0); lsI1 < 2; lsI1++ {
		{
			v3 := lsNew(&data)
			_ = v3
			lsContains(v0, 797)
		}
		v4 := lsNew(&data)
		_ = v4
		lsInsert(v4, 258)
	}
	for lsI1 := uint64(0); lsI1 < 2; lsI1++ {
		lsRemove(v0, 432)
	}
	f1(lsMakeParams([]*lsObj{v0}), path)
}

func main() {
	path := uint64(0)
	gotPath := false
	for _, arg := range os.Args[1:] {
		if arg == "--debug" {
			lsDebug = true
		} else if !gotPath {
			v, err := strconv.ParseUint(arg, 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: PATH must be a decimal integer in [0, 2^64), got '%s'\n", arg)
				os.Exit(2)
			}
			path = v
			gotPath = true
		} else {
			fmt.Fprintf(os.Stderr, "error: unexpected argument '%s'; usage: [PATH] [--debug]\n", arg)
			os.Exit(2)
		}
	}
	f2(lsMakeParams(nil), path)
	fmt.Printf("CHECKSUM %d\n", lsChecksum)
}
