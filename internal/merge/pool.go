package merge

import (
	"math/bits"
	"sync"
)

// treeState is the pooled backing store of a loser tree: all arrays have
// capacity ≥ the padded leaf count of the tree that borrowed them.
type treeState struct {
	loser []int
	head  [][]byte
	curH  []int32
	hc    []int32
	done  []bool
	pos   []int
	win   []Sequence
}

// treePools holds one sync.Pool per power-of-two size class, mirroring
// strsort.GetSized/Put: merges of similar K reuse each other's arrays, and
// the padded per-stream state stops being a per-merge allocation.
var treePools [bits.UintSize + 1]sync.Pool

func stateClass(k int) int { return bits.Len(uint(k)) }

func getTreeState(k int) *treeState {
	if st, _ := treePools[stateClass(k)].Get().(*treeState); st != nil && cap(st.loser) >= k {
		return st
	}
	return &treeState{
		loser: make([]int, k),
		head:  make([][]byte, k),
		curH:  make([]int32, k),
		hc:    make([]int32, k),
		done:  make([]bool, k),
		pos:   make([]int, k),
		win:   make([]Sequence, k),
	}
}

func putTreeState(st *treeState) {
	if st == nil {
		return
	}
	// Drop string references so pooled state never pins input arenas.
	clear(st.head[:cap(st.head)])
	clear(st.win[:cap(st.win)])
	treePools[stateClass(cap(st.loser))].Put(st)
}
