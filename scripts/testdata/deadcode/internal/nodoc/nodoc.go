// This comment is separated from the package clause by a blank line,
// so it is not a package doc comment.

package nodoc

// Level is read by the root facade.
var Level = 1
