// Package wal is the crash-consistency plane's flagship workload: a node
// appending records to a write-ahead log through the durable-storage
// primitives (Context.Persist / Sync / Recover), crashed mid-append by
// the scheduler, with recovery checked against a harness-level oracle.
//
// Each record is two durable writes — a header staking out the slot and a
// payload carrying the data — followed by one Sync, the fsync barrier
// that commits the record. A crash between those points leaves a torn
// tail: under the engine's bounded crash-state enumeration
// (Faults.MaxTornCrashes, the B3-style prefix model) the header can reach
// the disk without the payload. Correct recovery detects the incomplete
// record and truncates the log there; the seeded bug (Config.FixTornTail
// unset) trusts any present header and reads the missing payload as
// zeroes — the classic un-fsync'd-suffix recovery bug the FAST'16
// paper's testing methodology exists to catch.
package wal

import "strconv"

// hdrKey and valKey name a record's two durable writes. Records are
// recovered by dense index scan, so recovery never iterates the durable
// map — map order is hidden nondeterminism the engine cannot replay.
func hdrKey(i int) string { return recordKey(hdrKeys, "h/", i) }
func valKey(i int) string { return recordKey(valKeys, "v/", i) }

// hdrKeys and valKeys are the names of the first records' writes, built
// once, so neither an append nor recovery's scan builds a key string.
var hdrKeys, valKeys = keyTable("h/"), keyTable("v/")

func keyTable(prefix string) []string {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = recordKey(nil, prefix, i)
	}
	return keys
}

// recordKey is prefix+i, looked up in table when it covers i.
func recordKey(table []string, prefix string, i int) string {
	if i < len(table) {
		return table[i]
	}
	return prefix + strconv.Itoa(i)
}

// Recover rebuilds the record values from a durable map handed back by
// Context.Recover. With fixTornTail set it implements the correct
// recovery: scan records densely from zero and stop at the first one
// whose payload is missing — a header without its payload is a torn
// write, and everything from there on is an un-synced tail to discard.
//
// Without fixTornTail it is the seeded bug: any present header is
// trusted as a complete record, and a missing payload is read as a zero
// value — exactly what a recovery that checks "does the slot exist"
// instead of "did the record commit" does.
func Recover(durable map[string][]byte, fixTornTail bool) []int {
	if len(durable) == 0 {
		return nil
	}
	// A record is two keys, and a store holds at most one torn record.
	vals := make([]int, 0, (len(durable)+1)/2)
	for i := 0; ; i++ {
		if _, ok := durable[hdrKey(i)]; !ok {
			return vals
		}
		payload, ok := durable[valKey(i)]
		if !ok {
			if fixTornTail {
				return vals
			}
			vals = append(vals, 0)
			continue
		}
		vals = append(vals, int(payload[0]))
	}
}
