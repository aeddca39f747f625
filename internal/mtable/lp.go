package mtable

// Reporter receives linearization-point notifications from the
// MigratingTable: LP marks the most recent backend operation as the
// linearization point of the logical operation in progress — the instant
// at which the logical operation took effect on the virtual table.
//
// The systematic-test harness implements Reporter on its backend stub: the
// Tables machine serves nothing else after a backend operation until the
// stub reports whether it was a linearization point, and if so applies the
// logical operation to the reference table at exactly that moment (§4).
// Production code uses NopReporter.
type Reporter interface {
	LP()
}

type nopReporter struct{}

func (nopReporter) LP() {}

// NopReporter discards linearization-point notifications.
var NopReporter Reporter = nopReporter{}
