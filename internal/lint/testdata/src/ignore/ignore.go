// Package ig is a golden fixture for the //cclint:ignore directive
// machinery: well-formed directives suppress exactly their line, and
// malformed, unknown or stale directives are themselves findings.
package ig

import "time"

// deliberate carries a trailing directive: the finding on this line is
// suppressed and nothing is reported.
func deliberate() int64 {
	return time.Now().UnixNano() //cclint:ignore walltime -- fixture: deliberate host-time read
}

// standalone puts the directive on its own line; it suppresses the line
// below.
func standalone() {
	//cclint:ignore walltime -- fixture: suppresses the sleep below
	time.Sleep(time.Millisecond)
}

// missingReason omits the mandatory "-- reason": the directive does not
// suppress, and is reported itself.
func missingReason() {
	time.Sleep(1) //cclint:ignore walltime // want `wall-clock call time\.Sleep` `ignore directive missing`
}

// unknownAnalyzer names an analyzer that does not exist.
func unknownAnalyzer() {
	time.Sleep(2) //cclint:ignore wibble -- no such analyzer // want `wall-clock call time\.Sleep` `unknown analyzer "wibble"`
}

// stale suppresses nothing: the directive must be deleted.
func stale() int {
	return 3 //cclint:ignore walltime -- nothing here needs it // want `suppresses nothing`
}

// partlyStale names two analyzers but only walltime fires on the line:
// the idle maprange name is reported on its own, while the walltime
// finding stays suppressed.
func partlyStale() int64 {
	return time.Now().UnixNano() //cclint:ignore walltime,maprange -- fixture: only walltime fires here // want `ignore directive for "maprange" suppresses nothing`
}

// nameless gives a reason but names no analyzer: it can never suppress
// anything.
func nameless() int {
	return 4 //cclint:ignore -- fixture: no analyzer named // want `names no analyzer`
}
