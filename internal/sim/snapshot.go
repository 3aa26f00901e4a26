package sim

import (
	"errors"
	"fmt"
	"sort"

	"compcache/internal/snap"
)

// SnapshotTo serializes the kernel: global time, the sequence counter, every
// actor's clock instant, and the pending resume events in dispatch order with
// their original sequence numbers, so a restored kernel replays the exact
// same schedule. The kernel must be paused (not inside Run — use Stop from a
// timer callback to pause mid-simulation) and must hold no pending timers:
// timer callbacks are closures and cannot be serialized.
func (k *Kernel) SnapshotTo(w *snap.Writer) error {
	if k.running {
		return errors.New("sim: kernel snapshot while running (pause with Stop first)")
	}
	for _, e := range k.heap {
		if e.kind == evTimer {
			return errors.New("sim: kernel snapshot with pending timer callback")
		}
	}
	w.Section("sim.kernel")
	w.I64(int64(k.now))
	w.U64(k.seq)
	w.Int(len(k.ids))
	for _, id := range k.ids {
		st := k.actors[id]
		at := st.save
		if st.clock != nil {
			at = st.clock.now
		}
		w.I32(int32(id))
		w.I64(int64(at))
	}
	evs := make([]event, len(k.heap))
	copy(evs, k.heap)
	sort.Slice(evs, func(i, j int) bool { return less(evs[i].at, evs[i].id, evs[i].seq, evs[j]) })
	w.Int(len(evs))
	for _, e := range evs {
		w.I64(int64(e.at))
		w.I32(int32(e.id))
		w.U64(e.seq)
	}
	return nil
}

// Encoded sizes of one actor record (id, clock instant) and one resume event
// (instant, actor id, sequence number), which bound the counts a restore
// will believe.
const (
	actorRecordBytes = 4 + 8
	eventRecordBytes = 8 + 4 + 8
)

// RestoreFrom loads a kernel snapshot into a fresh kernel. Each restored
// actor must then be re-attached with Attach (its clock adopts the restored
// instant) and, if it had a pending resume event, re-armed with Bind so the
// wake-up has a continuation to start. The kernel must be empty. A malformed
// snapshot is refused with an error and leaves the kernel untouched; the
// caller checks the stream was consumed exactly with Reader.Close.
func (k *Kernel) RestoreFrom(r *snap.Reader) error {
	if k.running || len(k.actors) != 0 || len(k.heap) != 0 {
		return errors.New("sim: kernel restore into non-empty kernel")
	}
	r.Section("sim.kernel")
	now := Time(r.I64())
	seq := r.U64()
	actors := make(map[ActorID]*actorState)
	var ids []ActorID
	for i, n := 0, r.Count(actorRecordBytes); i < n; i++ {
		id := ActorID(r.I32())
		at := Time(r.I64())
		if id < 0 {
			return fmt.Errorf("sim: negative actor id %d in kernel snapshot", id)
		}
		if _, dup := actors[id]; dup {
			return fmt.Errorf("sim: duplicate actor %d in kernel snapshot", id)
		}
		actors[id] = &actorState{id: id, resume: make(chan Time), save: at}
		ids = append(ids, id)
	}
	evs := make([]event, r.Count(eventRecordBytes))
	for i := range evs {
		evs[i] = event{at: Time(r.I64()), id: ActorID(r.I32()), kind: evResume}
		evs[i].seq = r.U64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	for _, e := range evs {
		if actors[e.id] == nil {
			return fmt.Errorf("sim: kernel snapshot holds a resume event for unknown actor %d", e.id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	k.now = now
	k.seq = seq
	k.actors = actors
	k.ids = ids
	k.heap = append(k.heap, evs...)
	// The events were written in dispatch order, which is a valid heap
	// layout already, but establish the invariant explicitly.
	k.heap.init()
	return nil
}
