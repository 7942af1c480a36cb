//go:build !linux

package emunet

import "time"

// afterArrival calls f in its own goroutine once at has come, within the
// runtime timer's quantum of about a millisecond, and returns its timer.
func afterArrival(at time.Time, f func()) *time.Timer {
	return time.AfterFunc(time.Until(at), f)
}
