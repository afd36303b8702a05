// Fixture for the atomicword analyzer, helper-file half: this file is
// named fastpath.go, so atomics on the packed word are allowed — but
// only along the FREE/FAST/SLOW transition table.
package atomicword

import "sync/atomic"

const (
	fpSlowBit = 1 << 63
	fpFastBit = 1 << 61
)

type fastState struct {
	word atomic.Uint64
}

func fpPack(txn uint64) uint64 { return fpFastBit | txn }

func legal(fs *fastState, txn uint64) bool {
	_ = fs.word.Load()
	if fs.word.CompareAndSwap(0, fpPack(txn)) { // FREE→FAST: grant
		return true
	}
	if fs.word.CompareAndSwap(fpPack(txn), 0) { // FAST→FREE: release
		return true
	}
	fs.word.CompareAndSwap(fpPack(txn), fpSlowBit) // FAST→SLOW: demote
	fs.word.CompareAndSwap(0, fpSlowBit)           // FREE→SLOW: demote
	fs.word.Store(0)                               // promotion under the table latch
	return false
}

func illegal(fs *fastState, txn, w uint64) {
	fs.word.Store(fpSlowBit)                       // want `Store with a non-FREE value`
	fs.word.CompareAndSwap(fpSlowBit, fpPack(txn)) // want `FAST is entered from FREE`
	fs.word.CompareAndSwap(fpSlowBit, 0)           // want `FREE is entered by releasing a FAST holder`
	fs.word.CompareAndSwap(0, w)                   // want `cannot classify`
	fs.word.Add(1)                                 // want `only moves by Load, transition-table CAS, or promotion Store`
}
