package engine

// Pipeline builders for the external engine_test package.
var (
	NewTestSharded   = newTestSharded
	ADFFactory       = adfFactory
	GeneralDFFactory = generalDFFactory
)
