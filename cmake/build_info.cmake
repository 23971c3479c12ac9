# Writes obs/build_info.h from its template: the git SHA of the source
# tree (marked -dirty when the tree has uncommitted changes, "unknown"
# outside a git checkout) plus the build type and flags. Run with -P at
# configure time, so the header exists before anything compiles, and
# again on every build (target sg_build_info), so the SHA follows the
# tree being compiled rather than the one that was configured.
# configure_file rewrites the header only when its content changes.
#
# Inputs (-D): GIT_EXECUTABLE, SG_SOURCE_DIR, SG_INFO_IN, SG_INFO_OUT,
# CMAKE_BUILD_TYPE, CMAKE_CXX_FLAGS, SPECTRA_WERROR.
set(SG_GIT_SHA "unknown")
if(GIT_EXECUTABLE)
  execute_process(
    COMMAND ${GIT_EXECUTABLE} rev-parse HEAD
    WORKING_DIRECTORY ${SG_SOURCE_DIR}
    OUTPUT_VARIABLE SG_GIT_SHA_RAW
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET
    RESULT_VARIABLE SG_GIT_SHA_RESULT)
  if(SG_GIT_SHA_RESULT EQUAL 0)
    set(SG_GIT_SHA "${SG_GIT_SHA_RAW}")
    execute_process(
      COMMAND ${GIT_EXECUTABLE} status --porcelain
      WORKING_DIRECTORY ${SG_SOURCE_DIR}
      OUTPUT_VARIABLE SG_GIT_DIRTY
      ERROR_QUIET)
    if(NOT SG_GIT_DIRTY STREQUAL "")
      set(SG_GIT_SHA "${SG_GIT_SHA}-dirty")
    endif()
  endif()
endif()
configure_file(${SG_INFO_IN} ${SG_INFO_OUT} @ONLY)
