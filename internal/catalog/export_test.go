package catalog

// The helpers the external tests in legacy_test.go (package
// catalog_test) share with this package's own tests. Those tests drive
// internal/migrate, which imports this package, so they cannot live in
// it.

type Mutation = mutation

const SnapTrailerLen = snapTrailerLen

var (
	Populate         = populate
	RandomCatalog    = randomCatalog
	RandomHistory    = randomHistory
	LogRecords       = logRecords
	SnapshotDir      = snapshotDir
	RequireFiles     = requireFiles
	RequireSameState = requireSameState
	Canonical        = canonical
)
