package sim

import "testing"

// fuzzLanes is how many lanes the lane fuzz driver spreads its appends over.
const fuzzLanes = 3

// laneFuzzSched is the fuzz surface plus lane appends.
type laneFuzzSched interface {
	fuzzSched
	laneAppend(lane int, t Time, id int)
}

func (r *realSched) laneAppend(lane int, t Time, id int) {
	if r.lanes[lane] == nil {
		r.lanes[lane] = NewLane(r.s, realFireH{r})
	}
	r.lanes[lane].Append(&laneLink{id: id}, t)
}

// The reference has no lanes: an append is an ordinary event whose seq is
// taken at the call.
func (r *refSched) laneAppend(_ int, t Time, id int) { r.at(t, id) }

// laneDriver decodes a tape that interleaves At, ScheduleRun, RunUntil and
// Stop with monotone and non-monotone lane appends, at the top level and
// from inside firing handlers. Like fuzzDriver, its nested ops are a pure
// function of the firing event's id.
type laneDriver struct {
	fuzzDriver
	ls laneFuzzSched
	// last is the latest time appended to each lane: a monotone append
	// goes at or after it, so it always chains behind the lane's tail.
	last [fuzzLanes]Time
}

func (d *laneDriver) append(lane int, at Time) {
	d.nextID++
	if at > d.last[lane] {
		d.last[lane] = at
	}
	d.ls.laneAppend(lane, at, d.nextID)
}

func (d *laneDriver) appendMonotone(lane int, gap Duration) {
	at := d.ls.now()
	if d.last[lane] > at {
		at = d.last[lane]
	}
	d.append(lane, at.Add(gap))
}

// fire records a dispatch and possibly issues a nested op.
func (d *laneDriver) fire(id int, now Time) {
	d.log = append(d.log, fireRec{id, now})
	if len(d.data) == 0 || len(d.log) > 4096 {
		return
	}
	b := d.data[id%len(d.data)]
	lane := int(b/8) % fuzzLanes
	switch b % 8 {
	case 0:
		d.nextID++
		d.s.at(now.Add(Duration(b%16)), d.nextID)
	case 1:
		ents := make([]fuzzEntry, 2+int(b%3))
		at := now
		for i := range ents {
			at = at.Add(Duration((int(b) + i) % 5))
			d.nextID++
			ents[i] = fuzzEntry{id: d.nextID, at: at}
		}
		d.s.scheduleRun(ents)
	case 2:
		d.s.stop()
	case 3:
		d.appendMonotone(lane, Duration(b%5))
	case 4:
		for i := 0; i < 2+int(b%3); i++ {
			d.appendMonotone(lane, Duration(i%2))
		}
	case 5:
		d.append(lane, now.Add(Duration(b%16)))
	}
}

// run decodes and executes the tape, then drains.
func (d *laneDriver) run() {
	pos := 0
	next := func() byte {
		if pos >= len(d.data) {
			return 0
		}
		b := d.data[pos]
		pos++
		return b
	}
	for ops := 0; ops < 64 && pos < len(d.data); ops++ {
		switch next() % 6 {
		case 0:
			d.nextID++
			d.s.at(d.s.now().Add(Duration(next()%32)), d.nextID)
		case 1:
			k := 1 + int(next()%8)
			at := d.s.now().Add(Duration(next() % 8))
			ents := make([]fuzzEntry, k)
			for i := range ents {
				d.nextID++
				ents[i] = fuzzEntry{id: d.nextID, at: at}
				at = at.Add(Duration(next() % 8))
			}
			d.s.scheduleRun(ents)
		case 2:
			d.clocks = append(d.clocks, d.s.runUntil(d.s.now().Add(Duration(next()%64))))
			d.pendings = append(d.pendings, d.s.pending())
		case 3:
			d.s.stop()
		case 4:
			lane := int(next()) % fuzzLanes
			for k := 1 + int(next()%8); k > 0; k-- {
				d.appendMonotone(lane, Duration(next()%8))
			}
		case 5:
			lane := int(next()) % fuzzLanes
			d.append(lane, d.s.now().Add(Duration(next()%32)))
		}
	}
	d.clocks = append(d.clocks, d.s.runUntil(Time(1<<40)))
	d.clocks = append(d.clocks, d.s.runUntil(Time(1<<40)))
	d.pendings = append(d.pendings, d.s.pending())
}

// FuzzSchedulerLanes differentially fuzzes lane-deferred scheduling, mixed
// with plain events and run-coalesced batches, against the naive reference.
func FuzzSchedulerLanes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 5, 1, 2, 3, 4, 5, 2, 63})
	f.Add([]byte{4, 1, 3, 0, 0, 0, 5, 1, 2, 2, 9, 4, 1, 2, 7, 7, 2, 63})
	f.Add([]byte{4, 2, 7, 1, 1, 1, 1, 1, 1, 1, 5, 2, 0, 0, 3, 1, 2, 4, 4, 2, 20, 2, 40})
	f.Add([]byte{1, 3, 0, 1, 2, 4, 0, 2, 6, 0, 0, 0, 5, 0, 1, 3, 2, 5, 2, 63, 2, 63})
	f.Add([]byte{5, 0, 30, 4, 0, 3, 2, 2, 2, 5, 0, 1, 12, 28, 35, 44, 2, 10, 3, 2, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		real := &laneDriver{fuzzDriver: fuzzDriver{data: data}}
		rs := &realSched{s: NewScheduler(1), d: real}
		real.s, real.ls = rs, rs
		real.run()

		ref := &laneDriver{fuzzDriver: fuzzDriver{data: data}}
		fs := &refSched{d: ref}
		ref.s, ref.ls = fs, fs
		ref.run()

		diffDrivers(t, &real.fuzzDriver, &ref.fuzzDriver)
	})
}
