package machine

import "time"

// Injected is the canonical virtual-time-purity regression: host time
// leaking into the machine package.
func Injected() int64 {
	return time.Now().UnixNano() // want `wall-clock call time\.Now`
}
