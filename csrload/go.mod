// The benchmark is a module of its own so the repo's tier-1
// `go build ./... && go test ./...` neither builds nor runs it. Its path
// sits under the csrplus prefix, which is what lets it import
// csrplus/internal/... — Go checks internal imports by import path.
module csrplus/csrload

go 1.22

require csrplus v0.0.0

replace csrplus => ../
