// Generated benchmark program: 3 function(s), scalar container.
package main

import (
	"fmt"
	"os"
	"strconv"
)

var lsDebug = false
var lsChecksum = uint64(14695981039346656037)
var lsNextID = uint64(1)

type lsParams struct {
	items    []int64
	consumed int
}

func lsLog(opcode uint64, kind string, varID uint64, val int64, res int64) {
	event := opcode<<48 + varID<<32 + (uint64(val)&0xFFFF)<<16 + uint64(res)&0xFFFF
	lsChecksum = lsChecksum*1099511628211 + event
	if lsDebug {
		fmt.Printf("OP kind=%s var=%d val=%d res=%d\n", kind, varID, val, res)
	}
}

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

func f0(data lsParams, path uint64) {
	v0 := lsNew(&data, 0)
	_ = v0
	lsInsert(&v0, 0, 430)
}

func f1(data lsParams, path uint64) {
	v0 := lsNew(&data, 0)
	_ = v0
	lsContains(v0, 0, 840)
	if (path>>0)&1 == 1 {
		lsInsert(&v0, 0, 12)
	}
}

func f2(data lsParams, path uint64) {
	f0(lsMakeParams(nil), path)
	v0 := lsNew(&data, 0)
	_ = v0
	lsInsert(&v0, 0, 895)
	lsRemove(&v0, 0, 264)
	lsContains(v0, 0, 513)
	{
		v1 := lsNew(&data, 1)
		_ = v1
		lsContains(v0, 0, 700)
	}
	if (path>>0)&1 == 1 {
		v2 := lsNew(&data, 2)
		_ = v2
		lsInsert(&v2, 2, 475)
		for lsI2 := uint64(0); lsI2 < 2; lsI2++ {
			f1(lsMakeParams([]int64{v0, v2}), path)
		}
	} else {
		lsRemove(&v0, 0, 666)
		for lsI2 := uint64(0); lsI2 < 2; lsI2++ {
			lsContains(v0, 0, 951)
		}
	}
	if (path>>1)&1 == 1 {
		lsRemove(&v0, 0, 141)
	}
	for lsI1 := uint64(0); lsI1 < 2; lsI1++ {
		{
			v3 := lsNew(&data, 3)
			_ = v3
			lsContains(v0, 0, 797)
		}
		v4 := lsNew(&data, 4)
		_ = v4
		lsInsert(&v4, 4, 258)
	}
	for lsI1 := uint64(0); lsI1 < 2; lsI1++ {
		lsRemove(&v0, 0, 432)
	}
	f1(lsMakeParams([]int64{v0}), path)
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
